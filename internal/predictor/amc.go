package predictor

import (
	"fmt"

	"edbp/internal/cache"
)

// AMCConfig tunes Adaptive Mode Control [74].
type AMCConfig struct {
	// Interval is the initial idle-time threshold in CPU cycles.
	Interval uint64
	// Window is the adaptation period in CPU cycles: each window, the
	// extra ("sleep") miss ratio is compared against the target band.
	Window uint64
	// TargetLow/TargetHigh bound the acceptable ratio of extra misses
	// (misses caused by deactivated blocks) to total misses. AMC widens
	// the interval above TargetHigh and shrinks it below TargetLow.
	TargetLow, TargetHigh float64
	// MinInterval/MaxInterval bound adaptation.
	MinInterval, MaxInterval uint64
}

// DefaultAMC returns the AMC configuration used in ablations.
func DefaultAMC() AMCConfig {
	return AMCConfig{
		Interval:    16384,
		Window:      1 << 18,
		TargetLow:   0.01,
		TargetHigh:  0.10,
		MinInterval: 2048,
		MaxInterval: 1 << 21,
	}
}

// AMC is Adaptive Mode Control: a time-based dead block predictor like
// Cache Decay, but it keeps the tag array powered so it can *observe* the
// misses its own deactivations cause ("sleep misses") and adapts its idle
// threshold to hold that overhead inside a target band.
type AMC struct {
	cfg AMCConfig
	env Env

	idle        []uint64 // per-block idle cycles
	now         uint64   // predictor-local cycle clock
	lastTouched []uint64

	windowCycles uint64
	nextSweep    uint64 // the first multiple of sweepPeriod above windowCycles
	sleepMisses  uint64
	totalMisses  uint64
	intervalNow  uint64
}

// NewAMC constructs Adaptive Mode Control.
func NewAMC(cfg AMCConfig) (*AMC, error) {
	if cfg.Interval == 0 || cfg.Window == 0 {
		return nil, fmt.Errorf("predictor: AMC interval and window must be positive")
	}
	if cfg.TargetLow < 0 || cfg.TargetHigh <= cfg.TargetLow {
		return nil, fmt.Errorf("predictor: bad AMC target band [%g, %g]", cfg.TargetLow, cfg.TargetHigh)
	}
	a := &AMC{cfg: cfg, intervalNow: cfg.Interval}
	a.nextSweep = a.sweepPeriod()
	return a, nil
}

// Name implements Predictor.
func (a *AMC) Name() string { return "amc" }

// Attach implements Predictor.
func (a *AMC) Attach(env Env) {
	a.env = env
	n := env.Cache.Config().Blocks()
	a.lastTouched = make([]uint64, n)
	a.idle = make([]uint64, n)
}

// Interval returns the current (adapted) idle threshold.
func (a *AMC) Interval() uint64 { return a.intervalNow }

// AfterAccess implements Predictor.
func (a *AMC) AfterAccess(res cache.AccessResult) {
	ways := a.env.Cache.Ways()
	a.lastTouched[res.Set*ways+res.Way] = a.now
	if !res.Hit {
		a.totalMisses++
		if res.WrongKill {
			a.sleepMisses++
		}
	}
}

// Tick implements Predictor.
func (a *AMC) Tick(cycles uint64) {
	a.now += cycles
	a.windowCycles += cycles
	// Sweep for expired blocks at a coarse granularity (whenever the window
	// passes a multiple of sweepPeriod) — the hardware does this
	// continuously with per-line counters; sweeping more often changes
	// nothing observable. The deadline spares each Tick a division.
	if a.windowCycles >= a.nextSweep {
		a.sweep()
		p := a.sweepPeriod()
		a.nextSweep = (a.windowCycles/p + 1) * p
	}
	if a.windowCycles >= a.cfg.Window {
		a.adapt()
		a.windowCycles = 0
		a.nextSweep = a.sweepPeriod()
		a.sleepMisses, a.totalMisses = 0, 0
	}
}

// sweepPeriod is the number of window cycles between sweeps: 1/8 of the
// current interval, plus one.
func (a *AMC) sweepPeriod() uint64 { return a.intervalNow/8 + 1 }

func (a *AMC) sweep() {
	c := a.env.Cache
	ways := c.Ways()
	gated := 0
	for s := 0; s < c.Sets(); s++ {
		for w := 0; w < ways; w++ {
			b := c.Block(s, w)
			if !b.Live() {
				continue
			}
			if a.now-a.lastTouched[s*ways+w] >= a.intervalNow {
				a.env.GateBlock(s, w)
				gated++
			}
		}
	}
	if a.env.Trace != nil {
		a.env.Trace.PredictorSweep(gated, a.intervalNow)
	}
}

func (a *AMC) adapt() {
	if a.totalMisses < 32 {
		return
	}
	ratio := float64(a.sleepMisses) / float64(a.totalMisses)
	switch {
	case ratio > a.cfg.TargetHigh:
		if a.intervalNow*2 <= a.cfg.MaxInterval {
			a.intervalNow *= 2
		}
	case ratio < a.cfg.TargetLow:
		if a.intervalNow/2 >= a.cfg.MinInterval {
			a.intervalNow /= 2
		}
	}
}

// OnVoltage implements Predictor.
func (a *AMC) OnVoltage(float64) {}

// VoltageFree marks OnVoltage as a structural no-op (AMC is time-driven).
func (a *AMC) VoltageFree() {}

// OnCheckpoint implements Predictor.
func (a *AMC) OnCheckpoint() {}

// OnReboot implements Predictor.
func (a *AMC) OnReboot() {
	for i := range a.lastTouched {
		a.lastTouched[i] = a.now
	}
}
