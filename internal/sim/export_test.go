package sim

import "edbp/internal/workload"

// RunFromHeadroom runs cfg (any scheme but Ideal) on an engine whose
// capacitor starts flushes worst-case flushes (drainTable.perFlush) above
// the checkpoint threshold; 0 starts exactly at it. It is exported for the
// golden corpus in package sim_test, which also imports internal/fuzz and
// so cannot live in package sim.
func RunFromHeadroom(cfg Config, flushes float64) (*Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Trace == nil {
		if cfg.Trace, err = workload.Cached(cfg.App, cfg.Scale); err != nil {
			return nil, err
		}
	}
	e, err := newEngine(cfg, cfg.Trace, nil)
	if err != nil {
		return nil, err
	}
	st := e.cap.State()
	st.Stored = e.eCkpt + flushes*e.wc.perFlush
	e.cap.SetState(st)
	return e.run()
}
