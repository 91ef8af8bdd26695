package sim

import (
	"context"
	"fmt"
	"math"

	"edbp/internal/cache"
	"edbp/internal/checkpoint"
	"edbp/internal/core"
	"edbp/internal/cpu"
	"edbp/internal/energy"
	"edbp/internal/metrics"
	"edbp/internal/nvm"
	"edbp/internal/predictor"
	"edbp/internal/sram"
	"edbp/internal/trace"
	"edbp/internal/workload"
)

// zombieSampleEvery is the Figure 4 sampling period in simulated seconds.
const zombieSampleEvery = 20e-6

// engine is one simulation run's mutable state.
type engine struct {
	cfg   Config
	trace *workload.Trace

	cap *energy.Capacitor
	mon *energy.Monitor

	dc, ic  *cache.Cache
	dcModel *sram.Model
	icSRAM  *sram.Model // non-nil when the I-cache is SRAM (Section VI-I)
	icNVM   *nvm.ICache // non-nil when the I-cache is ReRAM (default)
	mem     *nvm.Memory

	fetch     *cpu.Fetcher
	blockMask uint64 // ^(BlockBytes-1)
	cycleTime float64
	mcuPower  float64

	pred   predictor.Predictor // data cache predictor stack
	icPred predictor.Predictor // optional I-cache predictor stack
	filter checkpoint.Filter
	edbp   *core.EDBP
	// ideal is the Ideal oracle on its replay pass, nil otherwise. The
	// replay loop compares each event index against its cursor (Next) and
	// calls GateThrough when an event reaches it.
	ideal *predictor.Ideal

	tracker   *metrics.Tracker
	icTracker *metrics.Tracker
	profile   *metrics.ZombieProfile

	// rec is the attached trace recorder, nil for untraced runs. Every
	// instrumentation site below nil-checks it (or a hook derived from it),
	// so the disabled path costs one untaken branch and zero allocations
	// (alloc_test.go pins this).
	rec *trace.Recorder

	// Hot-path shortcuts, all derived once in newEngine. The event loop
	// runs tens of millions of times per Run, so the per-event costs of
	// interface dispatch, modulo arithmetic, and re-deriving constants are
	// hoisted here (see DESIGN.md §Performance).
	power          func(float64) float64 // src.Power, via an incremental cursor for traces
	sampler        func(t, v float64, on bool)
	predIdle       bool    // predictor.None or Ideal: skip Tick/OnVoltage/AfterAccess entirely
	eCkpt          float64 // stored energy at which Voltage() first compares >= VCkpt
	eRst           float64 // stored energy at which Voltage() first compares >= VRst
	dcLeakCoef     float64 // dcModel.LeakPower * cfg.DCacheLeakFactor
	dcBlocksF      float64 // float64(dc blocks)
	icBlocksF      float64 // float64(ic blocks), SRAM I-cache only
	dcLeakPerBlock float64 // dcLeakCoef / dcBlocksF
	icLeakPerBlock float64 // icSRAM.LeakPower / icBlocksF (SRAM I-cache)
	icLeakFixed    float64 // icNVM.Leak (ReRAM I-cache: powered-count independent)
	memLeakPow     float64 // mem.Leak
	trainCb        trainer // filter/predictor Train hook, resolved once

	// Flattened per-access cost-model constants (post dynamic-energy
	// scaling), so the event loop reads engine-local fields instead of
	// chasing through the model structs.
	dcLat, dcE             float64 // data cache array access
	dcMissLat              float64 // extra on a D$ miss: mem read + refill access
	memReadE               float64
	memWriteLat, memWriteE float64
	ifHitLat, ifHitDyn     float64 // instruction fetch, hit path
	ifMissLat, ifMissDyn   float64 // instruction fetch, full miss path
	ifMissMemE             float64

	// Per-outage scratch, reused across power failures (zero steady-state
	// allocations).
	keptIdx []bool
	keptBuf [][2]int

	// Replay-loop capability probes, derived once in newEngine (see
	// batch.go). tickFreePred: every part of the data-cache stack marked
	// predictor.TickFree, so per-flush Tick calls can be skipped.
	// ovLadder: the single voltage-ladder part (EDBP) when every other
	// part is VoltageFree — per-flush OnVoltage reduces to energy-domain
	// ladder compares. ovFree: every part VoltageFree (no OnVoltage work
	// at all). When neither ovLadder nor ovFree holds (or an I-cache
	// predictor stack exists), the loop calls OnVoltage every flush.
	tickFreePred bool
	ovFree       bool
	ovLadder     predictor.VoltageLadder
	ladderE      []float64 // energy-domain ladder, rebuilt at batch reloads
	ladderSrc    []float64 // thresholds ladderE was derived from (NaN = stale)

	// wc is the worst-case per-flush drain table bounding how much stored
	// energy one flush can consume; batchCap caps the number of flushes a
	// batch may skip checkpoint checks for (Config.BatchCap).
	wc       drainTable
	batchCap int

	// Harvest-window acceleration for the replay loop: power sources are
	// piecewise constant (traces) or constant, so the loop caches one
	// sample per window instead of calling e.power per flush.
	srcMode   int // one of srcGeneric/srcConst/srcTrace
	srcDt     float64
	srcConstP float64

	// Cancellation plumbing (see bindContext). done is nil for
	// uncancellable runs — Run, and RunContext with context.Background() —
	// so the hot loops pay one nil check and nothing else. cancelErr is
	// set once a poll observes ctx done; the loops then unwind exactly
	// like a MaxSimTime truncation, without touching simulation state.
	ctx       context.Context
	done      <-chan struct{}
	cancelErr error

	// initialStored is the capacitor energy at construction, recorded for
	// Result.Cap (a test that SetStates after newEngine still reports the
	// construction-time value).
	initialStored float64

	now        float64
	eventIdx   uint64
	instrsDone uint64
	truncated  bool

	// pendingWB counts dirty writebacks queued by predictor gating. A
	// gating sweep can turn off dozens of dirty blocks at once; hardware
	// drains those through a writeback buffer over time, so the simulator
	// spreads their memory-write energy across subsequent flushes (two per
	// flush) instead of dumping one large instantaneous drain on the
	// capacitor (which would trigger artificial voltage-shock outages).
	// Any writebacks still pending at a power failure complete as part of
	// the checkpoint (the JIT energy reserve covers them).
	pendingWB int

	// Per-cache access-result scratch (see cache.AccessTo); dcRes is dead
	// once the memory event's flush starts, icRes once icFetch returns.
	dcRes cache.AccessResult
	icRes cache.AccessResult

	// Restore state across an outage.
	restoreBlocks int

	nextZombieSample float64

	res Result
}

type trainer interface {
	Train(addr uint64, uses uint32)
}

// newEngine wires a run together. predOverride, when non-nil, replaces the
// scheme-derived data cache predictor (used for the Ideal replay pass).
func newEngine(cfg Config, trace *workload.Trace, predOverride predictor.Predictor) (*engine, error) {
	capac, err := energy.NewCapacitor(cfg.Capacitor)
	if err != nil {
		return nil, err
	}
	dcCfg := cfg.dcacheConfig()
	dc, err := cache.New(dcCfg)
	if err != nil {
		return nil, fmt.Errorf("sim: data cache: %w", err)
	}
	ic, err := cache.New(cfg.icacheConfig())
	if err != nil {
		return nil, fmt.Errorf("sim: instruction cache: %w", err)
	}
	dcModel, err := sram.New(sram.Config{Bytes: cfg.DCacheBytes, Ways: cfg.DCacheWays})
	if err != nil {
		return nil, err
	}
	mem, err := nvm.NewMemory(cfg.MemTech, cfg.MemBytes)
	if err != nil {
		return nil, err
	}

	e := &engine{
		cfg:       cfg,
		trace:     trace,
		cap:       capac,
		mon:       energy.NewMonitor(cfg.Monitor),
		dc:        dc,
		ic:        ic,
		dcModel:   dcModel,
		mem:       mem,
		fetch:     cpu.NewFetcher(trace.Regions),
		cycleTime: cfg.CPU.CycleTime(),
		mcuPower:  cfg.CPU.ActivePower(),
		tracker:   metrics.NewTracker(dc.Sets(), dc.Ways()),
	}
	e.res.Config = cfg
	e.initialStored = capac.Stored()

	src := cfg.Source
	if src == nil {
		src = energy.CachedTrace(cfg.TraceKind, cfg.SourceSeed)
	}
	// Devirtualize the per-event power lookup; trace sources additionally
	// get an incremental cursor (the engine queries monotone times).
	e.power = src.Power
	e.srcMode = srcGeneric
	switch src := src.(type) {
	case *energy.Trace:
		e.power = src.Cursor().Power
		e.srcMode = srcTrace
		e.srcDt = src.Resolution()
	case energy.ConstantSource:
		e.srcMode = srcConst
		e.srcConstP = src.P
	}
	e.sampler = cfg.VoltageSampler
	e.eCkpt = capac.EnergyThreshold(cfg.Monitor.VCkpt)
	e.eRst = capac.EnergyThreshold(cfg.Monitor.VRst)
	e.dcLeakCoef = e.dcModel.LeakPower * cfg.DCacheLeakFactor
	e.dcBlocksF = float64(dc.Config().Blocks())
	e.icBlocksF = float64(ic.Config().Blocks())
	e.keptIdx = make([]bool, dc.Sets()*dc.Ways())
	e.blockMask = ^uint64(cfg.BlockBytes - 1)

	if cfg.ICacheSRAM {
		e.icSRAM, err = sram.New(sram.Config{Bytes: cfg.ICacheBytes, Ways: cfg.ICacheWays})
		if err != nil {
			return nil, err
		}
	} else {
		e.icNVM, err = nvm.NewICache(nvm.ReRAM, cfg.ICacheBytes)
		if err != nil {
			return nil, err
		}
	}

	// Apply the dynamic-energy calibration (Config.CacheDynScale /
	// MemDynScale); all these model structs are freshly constructed above,
	// so scaling in place is safe. Leakage powers stay untouched.
	e.dcModel.AccessEnergy *= cfg.CacheDynScale
	if e.icSRAM != nil {
		e.icSRAM.AccessEnergy *= cfg.CacheDynScale
	} else {
		e.icNVM.Hit.Energy *= cfg.CacheDynScale
		e.icNVM.Miss.Energy *= cfg.CacheDynScale
		e.icNVM.Write.Energy *= cfg.CacheDynScale
	}
	e.mem.Read.Energy *= cfg.MemDynScale
	e.mem.Write.Energy *= cfg.MemDynScale

	// Flatten the per-access cost model (post-scaling) into engine fields
	// for the event loop.
	e.dcLat = e.dcModel.AccessLatency
	e.dcE = e.dcModel.AccessEnergy
	e.dcMissLat = e.mem.Read.Latency + e.dcModel.AccessLatency
	e.memReadE = e.mem.Read.Energy
	e.memWriteLat = e.mem.Write.Latency
	e.memWriteE = e.mem.Write.Energy
	if e.icSRAM != nil {
		e.ifHitLat = e.icSRAM.AccessLatency
		e.ifHitDyn = e.icSRAM.AccessEnergy
		e.ifMissLat = e.icSRAM.AccessLatency + (e.mem.Read.Latency + e.icSRAM.AccessLatency)
		e.ifMissDyn = e.icSRAM.AccessEnergy + e.icSRAM.AccessEnergy
		e.ifMissMemE = e.mem.Read.Energy
	} else {
		e.ifHitLat = e.icNVM.Hit.Latency
		e.ifHitDyn = e.icNVM.Hit.Energy
		e.ifMissLat = e.icNVM.Miss.Latency + e.mem.Read.Latency + e.icNVM.Write.Latency
		e.ifMissDyn = e.icNVM.Miss.Energy + e.icNVM.Write.Energy
		e.ifMissMemE = e.mem.Read.Energy
	}
	// Leakage-power constants: the per-flush draws reduce to one multiply
	// (or a plain field read for the ReRAM I-cache and main memory).
	e.dcLeakPerBlock = e.dcLeakCoef / e.dcBlocksF
	if e.icSRAM != nil {
		e.icLeakPerBlock = e.icSRAM.LeakPower / e.icBlocksF
	} else {
		e.icLeakFixed = e.icNVM.Leak
	}
	e.memLeakPow = e.mem.Leak

	if cfg.CollectZombieProfile {
		e.profile, err = metrics.NewZombieProfile(cfg.Monitor.VCkpt, cfg.Capacitor.VMax, 12)
		if err != nil {
			return nil, err
		}
		e.tracker.EnableZombieProfile(e.profile)
		e.res.ZombieProfile = e.profile
	}

	// Trace wiring. The assignments are guarded so that an absent recorder
	// leaves every sink interface/func truly nil (a nil *Recorder stored in
	// an interface would still dispatch).
	var predSink predictor.Sink
	if cfg.Recorder != nil {
		e.rec = cfg.Recorder
		e.rec.StartRun()
		e.mon.SetSink(e.rec)
		dc.SetGateHook(e.rec.BlockGated)
		dc.SetWrongKillHook(e.rec.WrongKill)
		predSink = e.rec
	}

	// Predictor stacks.
	if predOverride != nil {
		e.pred = predOverride
	} else {
		e.pred, err = buildPredictor(cfg, cfg.DCacheWays)
		if err != nil {
			return nil, err
		}
	}
	e.pred.Attach(predictor.Env{Cache: dc, GateBlock: e.gateDCache, ClockHz: cfg.CPU.ClockHz, PC: e.fetch.PC, Trace: predSink})
	e.filter = checkpoint.DirtyOnly{}
	probeScheme(e.pred, e)
	if e.edbp != nil && e.rec != nil {
		e.edbp.SetSink(e.rec)
	}
	// Ideal's per-access and per-flush hooks are no-ops like None's: it
	// gates from its schedule cursor in the replay loops instead.
	e.ideal, _ = e.pred.(*predictor.Ideal)
	_, none := e.pred.(predictor.None)
	e.predIdle = none || e.ideal != nil
	// Resolve the outage-training hook once instead of per power failure;
	// a training checkpoint filter (SDBP) takes precedence over the
	// predictor stack.
	if tr, ok := e.pred.(trainer); ok {
		e.trainCb = tr
	}
	if c, ok := e.filter.(trainer); ok {
		e.trainCb = c
	}

	if cfg.PredictICache {
		e.icPred, err = buildPredictor(cfg, cfg.ICacheWays)
		if err != nil {
			return nil, err
		}
		e.icPred.Attach(predictor.Env{Cache: ic, GateBlock: e.gateICache, ClockHz: cfg.CPU.ClockHz, PC: e.fetch.PC})
		e.icTracker = metrics.NewTracker(ic.Sets(), ic.Ways())
	}

	// Batched-replay probes and the worst-case drain table (batch.go).
	e.tickFreePred = e.predIdle || predTickFree(e.pred)
	var ladders []predictor.VoltageLadder
	if e.predIdle || collectVoltageClass(e.pred, &ladders) {
		switch len(ladders) {
		case 0:
			e.ovFree = true
		case 1:
			e.ovLadder = ladders[0]
			n := len(e.ovLadder.LadderThresholds())
			e.ladderE = make([]float64, n)
			e.ladderSrc = make([]float64, n)
			for i := range e.ladderSrc {
				e.ladderSrc[i] = math.NaN() // never compares equal: force derivation
			}
		}
	}
	e.wc = buildDrainTable(e)
	e.batchCap = cfg.BatchCap
	if e.batchCap <= 0 {
		e.batchCap = DefaultBatchCap
	}
	return e, nil
}

// predTickFree reports whether every part of the stack promises a no-op
// Tick (predictor.TickFree), recursing through Combine.
func predTickFree(p predictor.Predictor) bool {
	if c, ok := p.(*predictor.Combine); ok {
		for _, part := range c.Parts() {
			if !predTickFree(part) {
				return false
			}
		}
		return true
	}
	_, ok := p.(predictor.TickFree)
	return ok
}

// collectVoltageClass reports whether every part of the stack is either
// VoltageFree or a VoltageLadder (appended to ladders), recursing through
// Combine. A false return means some part has a general OnVoltage and the
// replay loop must call it every flush.
func collectVoltageClass(p predictor.Predictor, ladders *[]predictor.VoltageLadder) bool {
	if c, ok := p.(*predictor.Combine); ok {
		ok := true
		for _, part := range c.Parts() {
			if !collectVoltageClass(part, ladders) {
				ok = false
			}
		}
		return ok
	}
	if _, isFree := p.(predictor.VoltageFree); isFree {
		return true
	}
	if vl, isLadder := p.(predictor.VoltageLadder); isLadder {
		*ladders = append(*ladders, vl)
		return true
	}
	return false
}

// buildPredictor constructs the scheme's predictor stack for a cache of
// the given associativity.
func buildPredictor(cfg Config, ways int) (predictor.Predictor, error) {
	// A predictor sub-config the constructor rejects is the caller's
	// invalid Config, named by its field.
	newDecay := func() (predictor.Predictor, error) {
		dcfg := predictor.DefaultDecay()
		if cfg.DecayCfg != nil {
			dcfg = *cfg.DecayCfg
		}
		p, err := predictor.NewDecay(dcfg)
		if err != nil {
			return nil, &ConfigError{Field: "DecayCfg", Err: err}
		}
		return p, nil
	}
	newAMC := func() (predictor.Predictor, error) {
		acfg := predictor.DefaultAMC()
		if cfg.AMCCfg != nil {
			acfg = *cfg.AMCCfg
		}
		p, err := predictor.NewAMC(acfg)
		if err != nil {
			return nil, &ConfigError{Field: "AMCCfg", Err: err}
		}
		return p, nil
	}
	newEDBP := func() (predictor.Predictor, error) {
		ecfg := core.DefaultConfig(ways, cfg.Monitor.VCkpt, cfg.Monitor.VRst)
		if cfg.EDBPCfg != nil {
			ecfg = *cfg.EDBPCfg
		}
		p, err := core.New(ecfg, ways)
		if err != nil {
			return nil, &ConfigError{Field: "EDBPCfg", Err: err}
		}
		return p, nil
	}
	newCounting := func() (predictor.Predictor, error) {
		return predictor.NewCounting(predictor.DefaultCounting())
	}
	newRefTrace := func() (predictor.Predictor, error) {
		return predictor.NewRefTrace(predictor.DefaultRefTrace())
	}
	combine := func(a func() (predictor.Predictor, error)) (predictor.Predictor, error) {
		p, err := a()
		if err != nil {
			return nil, err
		}
		z, err := newEDBP()
		if err != nil {
			return nil, err
		}
		return predictor.NewCombine(p, z), nil
	}
	switch cfg.Scheme {
	case Baseline:
		return predictor.None{}, nil
	case SDBP:
		scfg := predictor.DefaultSDBP()
		if cfg.SDBPCfg != nil {
			scfg = *cfg.SDBPCfg
		}
		p, err := predictor.NewSDBP(scfg)
		if err != nil {
			return nil, &ConfigError{Field: "SDBPCfg", Err: err}
		}
		return p, nil
	case Decay:
		return newDecay()
	case AMC:
		return newAMC()
	case EDBP:
		return newEDBP()
	case Counting:
		return newCounting()
	case RefTrace:
		return newRefTrace()
	case DecayEDBP:
		return combine(newDecay)
	case AMCEDBP:
		return combine(newAMC)
	case CountingEDBP:
		return combine(newCounting)
	case RefTraceEDBP:
		return combine(newRefTrace)
	case Ideal:
		return nil, fmt.Errorf("sim: Ideal is built by Run's two-pass driver, not buildPredictor")
	default:
		return nil, cfgErrf("Scheme", "%v is not one of the %d schemes", cfg.Scheme, len(Schemes))
	}
}

// probeScheme discovers special predictor capabilities (checkpoint
// filtering, EDBP state) anywhere in the stack.
func probeScheme(p predictor.Predictor, e *engine) {
	switch v := p.(type) {
	case *predictor.Combine:
		for _, part := range v.Parts() {
			probeScheme(part, e)
		}
	case checkpoint.Filter:
		e.filter = v
		if ed, ok := p.(*core.EDBP); ok {
			e.edbp = ed
		}
	}
	if ed, ok := p.(*core.EDBP); ok {
		e.edbp = ed
	}
}

// -------------------------------------------------------- cancellation --

// cancelPollMask sets the context poll cadence: every cancelPollMask+1
// trace events in the main loop and hibernation steps in the recharge
// loops. At 100 µs per hibernation step that is ≤ ~0.4 s of *simulated*
// time between polls — microseconds of wall time — while keeping the poll
// itself off the per-event hot path.
const cancelPollMask = 1<<12 - 1

// bindContext arms cancellation polling. A context that can never be
// canceled (Background, TODO) leaves done nil and the engine on the exact
// pre-context code path.
func (e *engine) bindContext(ctx context.Context) {
	if d := ctx.Done(); d != nil {
		e.ctx = ctx
		e.done = d
	}
}

// pollCancel observes the context without blocking. It records the cause
// on first observation and keeps reporting true afterwards; it never
// mutates simulation state, so an undisturbed context leaves the run
// bit-identical to an unpolled one.
func (e *engine) pollCancel() bool {
	if e.cancelErr != nil {
		return true
	}
	select {
	case <-e.done:
		e.cancelErr = e.ctx.Err()
		return true
	default:
		return false
	}
}

// ------------------------------------------------------------- gating --

// gateDCache powers a data cache block off on a predictor's behalf,
// charging the dirty writeback and notifying the tracker.
func (e *engine) gateDCache(set, way int) {
	wasDirty, gated := e.dc.Gate(set, way)
	if !gated {
		return
	}
	if wasDirty {
		e.pendingWB++
	}
	e.tracker.BlockGated(set, way, e.eventIdx, e.now)
}

// gateICache is the instruction cache twin (Figure 18 configurations);
// instruction blocks are never dirty.
func (e *engine) gateICache(set, way int) {
	if _, gated := e.ic.Gate(set, way); gated && e.icTracker != nil {
		e.icTracker.BlockGated(set, way, e.eventIdx, e.now)
	}
}

// -------------------------------------------------------------- energy --

// traceTick takes a gauge sample. Only called with e.rec != nil once
// Recorder.SampleDue reports the cadence has elapsed, so the O(blocks)
// gauge scan runs at the sample cadence, not per flush.
func (e *engine) traceTick() {
	live, gated, dirty := e.dc.StateCounts()
	s := trace.Sample{
		Time:    e.now,
		Voltage: e.cap.Voltage(),
		Stored:  e.cap.Stored(),
		Live:    int32(live),
		Gated:   int32(gated),
		Dirty:   int32(dirty),
	}
	if e.edbp != nil {
		s.Level = int32(e.edbp.Level())
		s.FPR = e.edbp.FPR()
	}
	if c := e.tracker.Counts(); c.Total() > 0 {
		s.ZombieRatio = float64(c.ZombieFN) / float64(c.Total())
	}
	e.rec.AddSample(s)
}

// advanceRaw progresses time/energy outside normal execution (checkpoint
// and restore): caches leak, the core is halted, the monitor is not
// consulted (the hardware sequence is atomic).
func (e *engine) advanceRaw(dt, energyJ float64, bucket *float64) {
	dcLeak := e.dcLeakPower() * dt
	icLeak := e.icLeakPower() * dt
	e.res.Energy.DCacheLeak += dcLeak
	e.res.Energy.ICacheLeak += icLeak
	*bucket += energyJ
	load := energyJ + dcLeak + icLeak
	if dt > 0 {
		e.cap.StepEnergy(dt, e.power(e.now), load)
	} else {
		e.cap.Drain(load)
	}
	e.now += dt
	e.res.ActiveTime += dt
	if e.rec != nil {
		e.rec.SetNow(e.now)
	}
}

// dcLeakPower is the data cache's current leakage draw.
func (e *engine) dcLeakPower() float64 {
	return e.dcLeakPerBlock * float64(e.dc.PoweredBlocks())
}

// icLeakPower is the instruction cache's current leakage draw.
func (e *engine) icLeakPower() float64 {
	if e.icSRAM != nil {
		return e.icLeakPerBlock * float64(e.ic.PoweredBlocks())
	}
	return e.icLeakFixed
}

// ----------------------------------------------------------- execution --

// notifyTracker forwards one cache access outcome to a tracker through
// direct struct calls. It is the single notification path for both caches
// (data and instruction).
func notifyTracker(t *metrics.Tracker, res *cache.AccessResult, blockAddr, event uint64, now float64) {
	if res.WrongKill {
		t.BlockWrongKill(res.Set, res.Way, event, now)
	}
	if res.Evicted {
		t.BlockEvicted(res.Set, res.Way, event, now)
	}
	if res.Filled {
		t.BlockFilled(res.Set, res.Way, blockAddr, event, now)
	} else if res.Hit {
		t.BlockHit(res.Set, res.Way, event, now)
	}
}

// icFetch is the I-cache access of one instruction fetch that the replay
// loop's inlined hit probes (batch.go) did not settle: a miss, a gated
// hit, or any fetch when the I-cache has a predictor stack or a non-LRU
// policy. event is the fetching trace event, now its start time and pc
// its instruction's address, synced for the I-cache predictor. It reports
// whether the fetch hit; the caller charges the fetch.
func (e *engine) icFetch(blk uint32, event int, now float64, pc uint32) bool {
	res := &e.icRes
	e.ic.AccessTo(uint64(blk), false, res)
	if e.icTracker != nil {
		notifyTracker(e.icTracker, res, uint64(blk), uint64(event), now)
	}
	if e.icPred != nil {
		e.eventIdx = uint64(event)
		e.now = now
		e.fetch.SetHot(pc, blk)
		e.icPred.AfterAccess(*res)
	}
	return res.Hit
}

// -------------------------------------------------------- power events --

// powerFailure executes the JIT checkpoint, the outage, hibernation, and
// the restore, leaving the engine running in the next power cycle.
func (e *engine) powerFailure() {
	e.res.Checkpoints++
	e.res.Outages++
	if len(e.res.OutageTimes) < OutageTimeCap {
		if e.res.OutageTimes == nil {
			// One up-front allocation instead of append growth: outage-heavy
			// runs (RF traces) hit the cap, short runs waste nothing more
			// than the old doubling schedule's final capacity.
			e.res.OutageTimes = make([]float64, 0, OutageTimeCap)
		}
		e.res.OutageTimes = append(e.res.OutageTimes, e.now)
	}
	e.pred.OnCheckpoint()
	if e.icPred != nil {
		e.icPred.OnCheckpoint()
	}

	// Queued gating writebacks must complete before power-down.
	if e.pendingWB > 0 {
		e.advanceRaw(float64(e.pendingWB)*e.mem.Write.Latency,
			float64(e.pendingWB)*e.mem.Write.Energy, &e.res.Energy.Memory)
		e.pendingWB = 0
	}

	plan, kept := checkpoint.PlanSaveInto(e.dc, e.filter, e.cfg.Checkpoint, e.keptBuf[:0])
	e.keptBuf = kept
	e.advanceRaw(plan.Latency, plan.Energy, &e.res.Energy.Checkpoint)
	e.res.CheckpointBlocks += plan.Blocks
	if e.rec != nil {
		e.rec.Checkpoint(plan.Blocks)
	}

	ways := e.dc.Ways()
	keptIdx := e.keptIdx
	for i := range keptIdx {
		keptIdx[i] = false
	}
	for _, sw := range kept {
		keptIdx[sw[0]*ways+sw[1]] = true
	}

	// Every valid block that is not checkpointed is lost: close its
	// generation (zombie bookkeeping) and train SDBP with its final use
	// count.
	tr := e.trainCb
	for s := 0; s < e.dc.Sets(); s++ {
		for w := 0; w < ways; w++ {
			b := e.dc.Block(s, w)
			if !b.Valid || keptIdx[s*ways+w] {
				continue
			}
			if tr != nil && !b.Gated {
				tr.Train(e.dc.BlockAddr(s, b.Tag), b.Uses)
			}
			e.tracker.BlockLostAtOutage(s, w, e.eventIdx, e.now)
		}
	}
	if e.profile != nil {
		e.profile.FlushCycle(true)
	}
	e.dc.Outage(func(s, w int, _ *cache.Block) bool { return keptIdx[s*ways+w] })

	// The SRAM instruction cache is volatile and is not checkpointed (its
	// contents are clean); the default ReRAM I-cache survives outages.
	if e.icSRAM != nil {
		if e.icTracker != nil {
			for s := 0; s < e.ic.Sets(); s++ {
				for w := 0; w < e.ic.Ways(); w++ {
					if e.ic.Block(s, w).Valid {
						e.icTracker.BlockLostAtOutage(s, w, e.eventIdx, e.now)
					}
				}
			}
		}
		e.ic.Outage(nil)
	}

	// The cycle closes only after the outage teardown above classified
	// every lost generation, so the per-cycle Counts delta includes this
	// outage's zombies.
	if e.rec != nil {
		e.rec.EndCycle(e.tracker.Counts())
	}

	e.restoreBlocks = plan.Blocks
	e.hibernate()
}

// hibernate advances time with the system off until the restore threshold
// is reached, then pays the restoration cost and resumes.
func (e *engine) hibernate() {
	if !e.recharge() {
		return
	}
	rplan := checkpoint.PlanRestore(e.restoreBlocks, e.cfg.Checkpoint)
	e.advanceRaw(rplan.Latency, rplan.Energy, &e.res.Energy.Checkpoint)
	e.res.RestoredBlocks += e.restoreBlocks
	e.res.PowerCycles++
	// Open the new cycle before OnReboot so EDBP's adaptation emissions
	// (and the restore itself) are attributed to the cycle they shape.
	if e.rec != nil {
		e.rec.StartCycle()
		e.rec.Restore(e.restoreBlocks)
	}
	e.pred.OnReboot()
	if e.icPred != nil {
		e.icPred.OnReboot()
	}
}

// recharge steps the powered-off capacitor one trace sample at a time,
// comparing stored energy against the precomputed restore threshold, so
// the common (sampler-less) loop does no square roots and no monitor calls
// — only an add, a clamp, a memoized decay multiply, and a compare per
// sample. The energy compare is exactly the monitor's Voltage() >= VRst
// test (see energy.Capacitor.EnergyThreshold); the monitor itself only
// observes the Off -> On edge. Returns false when the simulation horizon
// ran out or the context was canceled first.
func (e *engine) recharge() bool {
	const dt = energy.TraceResolution
	for step := uint64(1); ; step++ {
		e.cap.Step(dt, e.power(e.now), 0)
		e.now += dt
		e.res.OffTime += dt
		if e.sampler != nil {
			e.sampler(e.now, e.cap.Voltage(), false)
		}
		if e.cap.Stored() >= e.eRst {
			if e.rec != nil {
				e.rec.SetNow(e.now)
			}
			e.mon.Observe(e.cap.Voltage()) // records the Off -> On edge
			return true
		}
		if e.now > e.cfg.MaxSimTime {
			e.truncated = true
			return false
		}
		// A weak harvest can keep this loop from ever reaching Vrst; the
		// periodic context poll is the only other exit short of MaxSimTime.
		if e.done != nil && step&cancelPollMask == 0 && e.pollCancel() {
			return false
		}
	}
}

// ------------------------------------------------------------ main loop --

// Harvest source classification for the replay loop's power-window cache.
const (
	srcGeneric = iota // arbitrary Source: query every flush
	srcConst          // ConstantSource: one value forever
	srcTrace          // *energy.Trace: piecewise constant per Resolution window
)

// idealGate runs the Ideal oracle's gates due once event i completed at
// simulated time now, and returns the event of the next one.
func (e *engine) idealGate(i uint64, now float64) uint64 {
	e.eventIdx = i
	e.now = now
	return e.ideal.GateThrough(i)
}

// finish closes the run: open block generations, trace summary, result
// fields.
func (e *engine) finish() (*Result, error) {
	e.tracker.FlushOpen(e.now)
	if e.profile != nil {
		e.profile.FlushCycle(false)
	}
	if e.rec != nil {
		e.rec.SetNow(e.now)
		e.rec.FinishRun(e.tracker.Counts())
		e.res.TraceSummary = e.rec.Summary()
	}

	e.res.WallTime = e.now
	e.res.Instructions = e.instrsDone
	e.res.DCacheStats = *e.dc.Stats()
	e.res.ICacheStats = *e.ic.Stats()
	e.res.Prediction = e.tracker.Counts()
	e.res.GatedBlockSeconds = e.tracker.GatedTime()
	e.res.Truncated = e.truncated
	harvested, drained, leaked, wasted := e.cap.Totals()
	e.res.Energy.CapacitorLeak = leaked
	e.res.Cap = CapLedger{
		Initial:   e.initialStored,
		Final:     e.cap.Stored(),
		Harvested: harvested,
		Wasted:    wasted,
		Drained:   drained,
	}
	if e.edbp != nil {
		g, wk, down, rst := e.edbp.Stats()
		e.res.EDBP = &EDBPStats{Gated: g, WrongKills: wk, StepsDown: down, Resets: rst, FinalFPR: e.edbp.FPR()}
	}
	// A canceled run finalizes everything above exactly like a completed
	// one — the partial result is internally consistent — but reports the
	// interruption as a typed error instead of success.
	if e.cancelErr != nil {
		return nil, &Canceled{Partial: &e.res, Cause: e.cancelErr}
	}
	return &e.res, nil
}
