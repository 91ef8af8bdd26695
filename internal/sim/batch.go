package sim

import (
	"fmt"
	"math"

	"edbp/internal/cache"
	"edbp/internal/energy"
	"edbp/internal/workload"
)

// This file is the engine's replay loop (DESIGN.md §7.1). It replays the
// packed event trace one flush at a time: a tick chunk of up to tickChunk
// compute instructions, or the one instruction of a load, store, call or
// return, each advance the clock and integrate leakage, MCU power, the
// harvest and the capacitor, with the engine's hot state hoisted into a
// stack-local register file (hot) between batch edges. It is the only code
// that walks the PC and charges instruction fetches; cpu.Fetcher keeps the
// region stack a call or return moves the PC through. The golden Result
// corpus (corpus_golden_test.go) pins its arithmetic operation for
// operation, including the association of each float sum, so any
// reordering that "only" rounds differently is a result change.
//
// The idea that makes it fast is ETAP-style worst-case energy bounding
// (Erata et al.; DESIGN.md §7.1): the capacitor only *matters* when it
// crosses the checkpoint threshold, so the threshold compare is skipped
// while the energy above it provably covers every flush since the last
// compare. At every batch edge the loop banks half the live headroom
// stored − eCkpt (slackMargin), then charges each flush's actual load —
// plus a worst-case self-discharge rate, the one drain the load sum does
// not cover — against that bank. Harvest only ever adds energy, so while
// the bank stays non-negative, stored ≥ eCkpt is proven and the compare is
// skipped; any flush that could cross the threshold necessarily drives the
// bank negative first and gets the real compare, on exactly the flush
// where stored first falls below eCkpt. Config.BatchCap (hot.left) bounds
// the number of skipped compares regardless of slack; drainTable below
// supplies the self-discharge rate and a worst-case per-flush unit for
// tests.
//
// Batch edges — where the hoisted state is settled back into the engine
// (hotSettle), and after an outage reloaded from it (hotLoad) — are:
//
//   - checkpoint-threshold crossings (the outage path: powerFailure needs
//     the whole engine current);
//   - recorder gauge samples (trace.Recorder.SampleDue);
//   - the end of the window batchEvents was asked to replay, the end of
//     the run, a MaxSimTime truncation and a canceled context (polled
//     every cancelPollMask+1 events).
//
// Predictor callbacks between edges see the engine fields they read
// (eventIdx, now, the fetcher's PC) synced from the hot state first.

// tickChunk is the number of compute instructions one tick flush covers,
// small enough for the threshold check to keep pace with the capacitor.
// Part of the pinned arithmetic: it sets every tick flush's dt.
const tickChunk = 32

// drainTable bounds the stored-energy decrease of a single flush under
// the engine's flattened cost model. Built once per engine (newEngine);
// construction is amortized outside every loop. perFlush seeds the static
// K = floor(headroom/perFlush) batch size and gives tests an exact unit
// for constructing N-flush headrooms; the loop itself tightens the bound
// further by charging each flush's actual load against the slack
// (selfRate covers the one term the load does not: self-discharge).
type drainTable struct {
	perFlush float64 // safe per-flush headroom unit: 2·(dyn+leak+self)
	selfRate float64 // self-discharge bound in W: 2·eMax/τ (0 when τ=0)
}

// buildDrainTable derives the worst-case per-flush drain from the
// engine's (already scaled) cost constants.
func buildDrainTable(e *engine) drainTable {
	// Worst flush duration. A tick chunk executes up to tickChunk
	// instructions; each I-cache block holds blockBytes/4 of them, so the
	// chunk can fetch at most tickChunk/(blockBytes/4) blocks, plus one
	// for a misaligned start and one for a region wrap — every fetch a
	// full miss. A memory event is one instruction: at most one fetch
	// miss, the D$ access, a miss refill, and a dirty-eviction writeback.
	ipb := e.cfg.BlockBytes / 4
	if ipb < 1 {
		ipb = 1
	}
	fetchMax := float64(tickChunk/ipb + 2)
	dtTick := float64(tickChunk)*e.cycleTime + fetchMax*e.ifMissLat
	dtMem := e.cycleTime + e.ifMissLat + e.dcLat + e.dcMissLat + e.memWriteLat
	dt := math.Max(dtTick, dtMem)

	// Worst dynamic energy, including the up-to-two queued gating
	// writebacks any flush may drain.
	dynTick := fetchMax * (e.ifMissDyn + e.ifMissMemE)
	dynMem := 2*e.dcE + e.ifMissDyn + e.ifMissMemE + e.memReadE + e.memWriteE
	dyn := math.Max(dynTick, dynMem) + 2*e.memWriteE

	// Worst leakage + MCU draw: every block powered for the whole flush.
	icLeakPow := e.icLeakFixed
	if e.icSRAM != nil {
		icLeakPow = e.icLeakPerBlock * e.icBlocksF
	}
	leak := (e.dcLeakCoef + icLeakPow + e.memLeakPow + e.mcuPower) * dt

	// Worst self-discharge: a full capacitor decaying for the whole flush.
	// selfRate uses 1−exp(−x) ≤ x: the energy lost over dt seconds is
	// e·(1−exp(−2dt/τ)) ≤ eMax·2·dt/τ.
	self := 0.0
	selfRate := 0.0
	if tau := e.cap.Config().LeakTau; tau > 0 {
		self = e.cap.MaxEnergy() * (1 - math.Exp(-2*dt/tau))
		selfRate = 2 * e.cap.MaxEnergy() / tau
	}

	per := 2 * (dyn + leak + self)
	if !(per > 0) {
		// Degenerate all-zero cost model: never skip a check.
		per = math.Inf(1)
	}
	return drainTable{perFlush: per, selfRate: selfRate}
}

// hot is the batched loop's register file: every engine field the
// per-flush arithmetic touches, hoisted into one stack-allocated struct so
// the inner loop reads and writes locals instead of heap fields. The
// values mirror engine/capacitor state between hotLoad and hotSettle.
type hot struct {
	// Capacitor (energy.Capacitor.CapState).
	capE, harv, waste, leak, drain float64

	// Clock and energy accounting (engine.now, Result.ActiveTime,
	// Result.Energy buckets).
	now, active                        float64
	eDCd, eDCl, eICd, eICl, eMem, eMCU float64

	instrs uint64

	// Instruction fetch (cpu.Fetcher hot state + cached region bounds).
	pc, block   uint32
	rBase, rEnd uint32

	// Cached harvest window: p holds Power(t) for all t in [_, pUntil).
	p, pUntil float64

	// Checkpoint-check amortization. slack is a proven lower bound on
	// capE − eCkpt: each flush decrements it by the flush's actual load
	// plus the selfRate·dt self-discharge bound (harvest only raises capE,
	// so ignoring it keeps the bound sound). While slack ≥ 0, capE ≥ eCkpt
	// and the threshold compare is skipped; the first flush that could
	// cross the threshold drives slack negative and gets the real compare,
	// so an outage fires on the first flush that leaves capE < eCkpt.
	// left counts flushes down from Config.BatchCap so the knob bounds the
	// check interval regardless of slack.
	slack float64
	left  int

	nextZS  float64 // engine.nextZombieSample
	lastLvl int     // ladder level mirror (ovLadder mode)

	// Ring memo for the self-discharge factor exp(-2·dt/τ), scanned inline
	// by the flush body. FIFO insertion (not move-to-front) so cyclic flush
	// patterns — tick, hit, hit+fetch, … — don't thrash it; leakHit points
	// at the slot that matched last, so runs of equal dt skip the scan. The
	// factor is a pure function of dt, so the memo policy cannot affect
	// results. dt > 0 on every flush, so zero-initialized entries never
	// falsely hit.
	leakDt  [8]float64
	leakF   [8]float64
	leakIdx int
	leakHit int

	// Leakage-power memo: coefficient × PoweredBlocks() is recomputed only
	// when the powered count changes, which it does orders of magnitude
	// less often than flushes happen. The cached value is the identical
	// product (same operands, same multiply), so dcLeakPB·dt is bit-equal
	// to recomputing it every flush.
	pbLast, ipbLast    int
	dcLeakPB, icLeakPB float64
}

// hotLoad captures the current engine state into a hot value and resets
// the batch budget; called when batchEvents starts and after an outage. It returns by value — and hotSettle takes its argument by
// value — so batchEvents never takes the address of its hot state (the
// escape would pin every spill slot; the struct itself is too large for
// SSA decomposition either way, but the value discipline keeps the
// excursion boundaries explicit).
func (e *engine) hotLoad() hot {
	var h hot
	st := e.cap.State()
	h.capE, h.harv, h.waste, h.leak, h.drain = st.Stored, st.Harvested, st.Wasted, st.Leaked, st.Drained
	h.now = e.now
	h.active = e.res.ActiveTime
	en := &e.res.Energy
	h.eDCd, h.eDCl, h.eICd, h.eICl, h.eMem, h.eMCU =
		en.DCacheDynamic, en.DCacheLeak, en.ICacheDynamic, en.ICacheLeak, en.Memory, en.MCU
	h.instrs = e.instrsDone
	h.pc, h.block = e.fetch.Hot()
	h.rBase, h.rEnd = e.fetch.Bounds()
	h.nextZS = e.nextZombieSample
	h.p, h.pUntil = 0, math.Inf(-1) // force a window refresh on first use
	h.pbLast, h.ipbLast = -1, -1    // force a leak-product refresh too
	// Seed the check-skip slack from the live headroom (zero-or-negative
	// headroom just forces a real compare on the first flush).
	h.slack = (h.capE - e.eCkpt) * slackMargin
	h.left = e.batchCap
	if e.ovLadder != nil {
		// Re-derive the energy-domain ladder for any threshold OnReboot
		// adapted (the only hook allowed to change it). EnergyThreshold's
		// ulp walk is only paid per changed rung.
		ths := e.ovLadder.LadderThresholds()
		for idx, th := range ths {
			if e.ladderSrc[idx] != th {
				e.ladderE[idx] = e.cap.EnergyThreshold(th)
				e.ladderSrc[idx] = th
			}
		}
		h.lastLvl = e.ovLadder.Level()
	}
	return h
}

// hotSettle writes h back into the engine, making every engine field
// current for a slow-path excursion (outage, gauge sample) or the return.
func (e *engine) hotSettle(h hot) {
	e.cap.SetState(energy.CapState{
		Stored: h.capE, Harvested: h.harv, Wasted: h.waste, Leaked: h.leak, Drained: h.drain,
	})
	e.now = h.now
	e.res.ActiveTime = h.active
	en := &e.res.Energy
	en.DCacheDynamic, en.DCacheLeak, en.ICacheDynamic, en.ICacheLeak, en.Memory, en.MCU =
		h.eDCd, h.eDCl, h.eICd, h.eICl, h.eMem, h.eMCU
	e.instrsDone = h.instrs
	e.fetch.SetHot(h.pc, h.block)
	e.nextZombieSample = h.nextZS
}

// slackMargin is the safety factor on the check-skip slack. The slack
// recurrence itself runs in floats: a margin of one half leaves orders of
// magnitude more headroom than the worst accumulated rounding error over a
// BatchCap-long batch, while still amortizing the threshold compare over
// thousands of flushes at realistic headrooms.
const slackMargin = 0.5

// powerWindowEnd returns the smallest float64 time t with int64(t/dt) > i:
// the exact edge of the piecewise-constant window i under the same float
// division energy.Cursor.Power performs. Walking ulps costs a handful of
// iterations once per 100 µs window; the per-flush lookup becomes one
// comparison.
func powerWindowEnd(i int64, dt float64) float64 {
	b := float64(i+1) * dt
	for int64(b/dt) <= i {
		b = math.Nextafter(b, math.Inf(1))
	}
	for {
		d := math.Nextafter(b, math.Inf(-1))
		if d >= 0 && int64(d/dt) > i {
			b = d
			continue
		}
		return b
	}
}

// refreshPower recomputes the cached harvest sample for time now. For
// trace sources the sample is constant within each Resolution window; for
// constant sources it never changes; for arbitrary sources (and times
// beyond the trace's integer-index horizon) the cache degenerates to one
// lookup per flush.
func (e *engine) refreshPower(now float64) (p, pUntil float64) {
	switch e.srcMode {
	case srcConst:
		return e.srcConstP, math.Inf(1)
	case srcTrace:
		p = e.power(now)
		if now > 1e12 {
			return p, now
		}
		return p, powerWindowEnd(int64(now/e.srcDt), e.srcDt)
	default:
		return e.power(now), now
	}
}

// run replays the whole trace and finalizes the result.
func (e *engine) run() (*Result, error) {
	if err := e.batchEvents(e.trace.Events, 0, len(e.trace.Events)); err != nil {
		return nil, err
	}
	return e.finish()
}

// batchEvents replays events [lo, hi) of the trace. It may be called
// repeatedly over adjacent ranges (the zero-alloc tests step it); engine
// state is settled on every return.
func (e *engine) batchEvents(events []workload.Event, lo, hi int) error {
	// Engine invariants hoisted to locals (the flattened cost model,
	// minus the pointer chases).
	var (
		cycleTime                        = e.cycleTime
		bm                               = uint32(e.cfg.BlockBytes) - 1
		dcLat, dcE                       = e.dcLat, e.dcE
		dcMissLat                        = e.dcMissLat
		memReadE                         = e.memReadE
		memWriteLat, memWriteE           = e.memWriteLat, e.memWriteE
		ifHitLat, ifHitDyn               = e.ifHitLat, e.ifHitDyn
		ifMissLat, ifMissDyn, ifMissMemE = e.ifMissLat, e.ifMissDyn, e.ifMissMemE
		dcLeakPerBlock                   = e.dcLeakPerBlock
		icLeakPerBlock                   = e.icLeakPerBlock
		icLeakFixed                      = e.icLeakFixed
		memLeakPow                       = e.memLeakPow
		mcuPower                         = e.mcuPower
		blockMask                        = e.blockMask
		tau                              = e.cap.Config().LeakTau
		eMax                             = e.cap.MaxEnergy()
		eCkpt                            = e.eCkpt
		maxSim                           = e.cfg.MaxSimTime
		batchCap                         = e.batchCap
		icIsSRAM                         = e.icSRAM != nil
		dc, ic                           = e.dc, e.ic
		predIdle                         = e.predIdle
		tickFree                         = e.tickFreePred
		icPred                           = e.icPred
		tickCall                         = (!e.predIdle && !e.tickFreePred) || e.icPred != nil
		ladderOn                         = e.ovLadder != nil && e.icPred == nil
		ovSkip                           = e.ovFree && e.icPred == nil
		ladderE                          = e.ladderE
		profile                          = e.profile
		sampler                          = e.sampler
		rec                              = e.rec
		icTracker                        = e.icTracker
		dcv                              = e.dc.HitView()
		icv                              = e.ic.HitView()
		icFast                           = e.icPred == nil && icv.Stack != nil
		dcFast                           = dcv.Stack != nil
		nextGate                         = e.ideal.Next()
		done                             = e.done
	)

	h := e.hotLoad()

	selfRate := e.wc.selfRate

	i := lo
	tickLeft := 0
	var op workload.Op
	var arg uint32

	for i < hi {
		if tickLeft == 0 {
			if e.truncated || e.cancelErr != nil {
				break
			}
			// The poll at i == 0 makes an already-canceled context return
			// before any simulation work.
			if done != nil && i&cancelPollMask == 0 && e.pollCancel() {
				break
			}
			ev := events[i]
			op, arg = ev.Op(), ev.Arg()
			switch op {
			case workload.OpTick:
				tickLeft = int(arg)
				if tickLeft <= 0 {
					// Empty tick: no flush, but the event still completes.
					if uint64(i) >= nextGate {
						nextGate = e.idealGate(uint64(i), h.now)
					}
					i++
					continue
				}
			case workload.OpEnter, workload.OpLeave, workload.OpLoad, workload.OpStore:
				// Handled below.
			default:
				e.hotSettle(h)
				return fmt.Errorf("sim: unknown trace op %d", op)
			}
		}

		// ------------------------------------------------ one flush unit --
		// One tick chunk (≤ tickChunk instructions) or one single-instruction
		// event — a load, a store, a call or a return; dt and the three
		// dynamic-energy inputs feed the inlined flush below.
		var dt, dcDyn, icDyn, memDyn float64
		if op == workload.OpTick {
			k := tickLeft
			if k > tickChunk {
				k = tickChunk
			}
			tickLeft -= k
			var fLat, fDyn, fMemE float64
			n := k
			for n > 0 {
				blk := h.pc &^ bm
				if blk != h.block {
					h.block = blk
					// Inlined demand-hit fast path (cache.HitView): the
					// probe, hit bookkeeping and LRU touch exactly as
					// AccessTo's hit path, with the tracker hit forwarded
					// directly — a plain hit needs no AccessResult. Anything
					// else leaves the cache untouched and falls back.
					hit := false
					if icFast {
						ba := uint64(blk) >> icv.BlockShift
						set := int(ba & icv.SetMask)
						tag := ba >> icv.SetShift
						base := set * icv.Ways
						sb := icv.Blocks[base : base+icv.Ways]
						for w := range sb {
							b := &sb[w]
							if b.Valid && b.Tag == tag {
								if !b.Gated {
									b.Uses++
									icv.Stats.Hits++
									s := icv.Stack[base : base+icv.Ways]
									if s[0] != uint8(w) {
										pos := 1
										for int(s[pos]) != w {
											pos++
										}
										copy(s[1:pos+1], s[:pos])
										s[0] = uint8(w)
									}
									if icTracker != nil {
										icTracker.BlockHit(set, w, uint64(i), h.now)
									}
									hit = true
								}
								break
							}
						}
					}
					if !hit {
						hit = e.icFetch(blk, i, h.now, h.pc)
					}
					if hit {
						fLat += ifHitLat
						fDyn += ifHitDyn
					} else {
						fLat += ifMissLat
						fDyn += ifMissDyn
						fMemE += ifMissMemE
					}
				}
				limit := blk + bm + 1
				if h.rEnd < limit {
					limit = h.rEnd
				}
				avail := int(limit-h.pc) / 4
				if avail <= 0 {
					avail = 1
				}
				take := n
				if take > avail {
					take = avail
				}
				h.pc += uint32(take) * 4
				n -= take
				if h.pc >= h.rEnd {
					h.pc = h.rBase
				}
			}
			h.instrs += uint64(k)
			dt = float64(k)*cycleTime + fLat
			icDyn = fDyn
			memDyn = fMemE
		} else {
			// The event's one instruction: the same fetch as the tick walk
			// (a second inlined probe, kept because one walk loop for every
			// op measured slower; DESIGN.md §7.1), then the PC advance.
			var fLat, fDyn, fMemE float64
			blk := h.pc &^ bm
			if blk != h.block {
				h.block = blk
				hit := false
				if icFast {
					ba := uint64(blk) >> icv.BlockShift
					set := int(ba & icv.SetMask)
					tag := ba >> icv.SetShift
					base := set * icv.Ways
					sb := icv.Blocks[base : base+icv.Ways]
					for w := range sb {
						b := &sb[w]
						if b.Valid && b.Tag == tag {
							if !b.Gated {
								b.Uses++
								icv.Stats.Hits++
								s := icv.Stack[base : base+icv.Ways]
								if s[0] != uint8(w) {
									pos := 1
									for int(s[pos]) != w {
										pos++
									}
									copy(s[1:pos+1], s[:pos])
									s[0] = uint8(w)
								}
								if icTracker != nil {
									icTracker.BlockHit(set, w, uint64(i), h.now)
								}
								hit = true
							}
							break
						}
					}
				}
				if !hit {
					hit = e.icFetch(blk, i, h.now, h.pc)
				}
				if hit {
					fLat, fDyn = ifHitLat, ifHitDyn
				} else {
					fLat, fDyn, fMemE = ifMissLat, ifMissDyn, ifMissMemE
				}
			}
			h.pc += 4
			if h.pc >= h.rEnd {
				h.pc = h.rBase
			}
			h.instrs++

			switch op {
			case workload.OpEnter, workload.OpLeave:
				// A call or return: the fetcher moves the PC between
				// regions, and the new region's bounds are reloaded.
				e.fetch.SetHot(h.pc, h.block)
				if op == workload.OpEnter {
					e.fetch.Enter(int(arg))
				} else {
					e.fetch.Leave()
				}
				h.pc = e.fetch.PC()
				h.rBase, h.rEnd = e.fetch.Bounds()
				dt = cycleTime + fLat
				icDyn = fDyn
				memDyn = fMemE
			default: // OpLoad, OpStore
				write := op == workload.OpStore
				fast := false
				if dcFast {
					// Inlined demand-hit fast path (cache.HitView). A demand
					// hit's AccessResult is exactly {Hit, Set, Way}: the
					// tracker hit is forwarded directly and the predictor (if
					// any) sees the identical result struct.
					ba := uint64(arg) >> dcv.BlockShift
					set := int(ba & dcv.SetMask)
					tag := ba >> dcv.SetShift
					base := set * dcv.Ways
					sb := dcv.Blocks[base : base+dcv.Ways]
					for w := range sb {
						b := &sb[w]
						if b.Valid && b.Tag == tag {
							if !b.Gated {
								b.Uses++
								if write {
									b.Dirty = true
									dcv.Stats.StoreHits++
								}
								dcv.Stats.Hits++
								s := dcv.Stack[base : base+dcv.Ways]
								if s[0] != uint8(w) {
									pos := 1
									for int(s[pos]) != w {
										pos++
									}
									copy(s[1:pos+1], s[:pos])
									s[0] = uint8(w)
								}
								fast = true
								dcDyn = dcE
								if !predIdle {
									e.eventIdx = uint64(i)
									e.now = h.now
									e.fetch.SetHot(h.pc, h.block) // RefTrace reads env.PC here
									e.dcRes = cache.AccessResult{Hit: true, Set: set, Way: w}
									e.tracker.BlockHit(set, w, uint64(i), h.now)
									e.pred.AfterAccess(e.dcRes)
								} else {
									e.tracker.BlockHit(set, w, uint64(i), h.now)
								}
								// (cycleTime + fLat) + dcLat, where the miss
								// path below sums cycleTime + (fLat + dcLat +
								// …): the two associations round differently,
								// and the corpus pins both.
								dt = cycleTime + fLat + dcLat
								icDyn = fDyn
								memDyn = fMemE
							}
							break
						}
					}
				}
				if !fast {
					res := &e.dcRes
					dc.AccessTo(uint64(arg), write, res)
					lat := fLat + dcLat
					dcDyn = dcE
					memE := fMemE
					if !res.Hit {
						lat += dcMissLat
						dcDyn += dcE
						memE += memReadE
						if res.Evicted && res.EvictedDirty {
							lat += memWriteLat
							memE += memWriteE
						}
					}
					notifyTracker(e.tracker, res, uint64(arg)&blockMask, uint64(i), h.now)
					if !predIdle {
						e.eventIdx = uint64(i)
						e.now = h.now
						e.fetch.SetHot(h.pc, h.block) // RefTrace reads env.PC here
						e.pred.AfterAccess(*res)
					}
					dt = cycleTime + lat
					icDyn = fDyn
					memDyn = memE
				}
			}
		}

		// --------------------------------------------------------- flush --
		// Queued gating writebacks drain two per flush.
		for k := 0; k < 2 && e.pendingWB > 0; k++ {
			e.pendingWB--
			memDyn += memWriteE
		}
		// dt >= cycleTime > 0 on every flush.
		if pb := dc.PoweredBlocks(); pb != h.pbLast {
			h.pbLast = pb
			h.dcLeakPB = dcLeakPerBlock * float64(pb)
		}
		dcLeak := h.dcLeakPB * dt
		var icLeak float64
		if icIsSRAM {
			if ipb := ic.PoweredBlocks(); ipb != h.ipbLast {
				h.ipbLast = ipb
				h.icLeakPB = icLeakPerBlock * float64(ipb)
			}
			icLeak = h.icLeakPB * dt
		} else {
			icLeak = icLeakFixed * dt
		}
		memLeak := memLeakPow * dt
		mcu := mcuPower * dt
		h.eDCd += dcDyn
		h.eDCl += dcLeak
		h.eICd += icDyn
		h.eICl += icLeak
		h.eMem += memDyn + memLeak
		h.eMCU += mcu
		load := dcDyn + icDyn + memDyn + dcLeak + icLeak + memLeak + mcu

		if h.now >= h.pUntil {
			h.p, h.pUntil = e.refreshPower(h.now)
		}
		// Capacitor StepEnergy = Charge(p·dt); Leak(dt); Drain(load),
		// with the identical guards and accumulation order.
		if x := h.p * dt; x > 0 {
			h.harv += x
			h.capE += x
			if h.capE > eMax {
				h.waste += h.capE - eMax
				h.capE = eMax
			}
		}
		if tau > 0 && h.capE > 0 {
			// Runs of identical flushes repeat the same dt, so the slot that
			// matched last time is checked first, before the ring scan.
			var f float64
			found := true
			if j := h.leakHit; h.leakDt[j] == dt {
				f = h.leakF[j]
			} else {
				found = false
				for j := 0; j < len(h.leakDt); j++ {
					if h.leakDt[j] == dt {
						f = h.leakF[j]
						h.leakHit = j
						found = true
						break
					}
				}
			}
			if !found {
				f = math.Exp(-2 * dt / tau)
				h.leakDt[h.leakIdx] = dt
				h.leakF[h.leakIdx] = f
				h.leakHit = h.leakIdx
				h.leakIdx = (h.leakIdx + 1) % len(h.leakDt)
			}
			after := h.capE * f
			h.leak += h.capE - after
			h.capE = after
		}
		if load > 0 {
			taken := load
			if taken > h.capE {
				taken = h.capE
			}
			h.capE -= taken
			h.drain += taken
		}
		h.now += dt
		h.active += dt

		if tickCall {
			cycles := uint64(dt/cycleTime + 0.5)
			e.eventIdx = uint64(i)
			e.now = h.now
			e.fetch.SetHot(h.pc, h.block)
			if !predIdle && !tickFree {
				e.pred.Tick(cycles)
			}
			if icPred != nil {
				icPred.Tick(cycles)
			}
		}

		if profile != nil && h.now >= h.nextZS {
			profile.Sample(h.now, e.cap.VoltageAt(h.capE), dc.LiveBlocks())
			h.nextZS = h.now + zombieSampleEvery
		}
		if sampler != nil {
			sampler(h.now, e.cap.VoltageAt(h.capE), true)
		}
		if rec != nil {
			rec.SetNow(h.now)
			if rec.SampleDue(h.now) {
				// Gauge samples read the whole engine; settle for them.
				e.eventIdx = uint64(i)
				e.hotSettle(h)
				e.traceTick()
			}
		}

		// Checkpoint threshold, amortized by actual-drain accounting: while
		// h.slack ≥ 0, h.capE ≥ eCkpt is proven (see hot.slack) and the
		// compare is skipped. Any flush where h.capE < eCkpt necessarily
		// drove h.slack negative, so the outage fires on that flush.
		h.slack -= load + selfRate*dt
		h.left--
		outage := false
		if h.slack < 0 || h.left <= 0 {
			if h.capE < eCkpt {
				e.eventIdx = uint64(i)
				e.hotSettle(h)
				e.mon.Observe(e.cap.Voltage()) // records the On -> Off edge
				e.powerFailure()
				h = e.hotLoad()
				outage = true // the flush ends at the restore
			} else {
				h.slack = (h.capE - eCkpt) * slackMargin
				h.left = batchCap
			}
		}

		if !outage {
			if ladderOn {
				// Energy-domain ladder: exact equivalent of calling
				// OnVoltage every flush, forwarded only on level changes
				// (no-change calls are observable no-ops per
				// predictor.VoltageLadder).
				lvl := 0
				for _, th := range ladderE {
					if h.capE < th {
						lvl++
					}
				}
				if lvl != h.lastLvl {
					e.eventIdx = uint64(i)
					e.now = h.now
					e.fetch.SetHot(h.pc, h.block)
					e.pred.OnVoltage(e.cap.VoltageAt(h.capE))
					h.lastLvl = lvl
				}
			} else if !ovSkip {
				e.eventIdx = uint64(i)
				e.now = h.now
				e.fetch.SetHot(h.pc, h.block)
				if !predIdle {
					v := e.cap.VoltageAt(h.capE)
					e.pred.OnVoltage(v)
					if icPred != nil {
						icPred.OnVoltage(v)
					}
				} else if icPred != nil {
					icPred.OnVoltage(e.cap.VoltageAt(h.capE))
				}
			}
			if h.now > maxSim {
				e.truncated = true
			}
		}

		// -------------------------------------------------- event advance --
		if op == workload.OpTick && tickLeft > 0 {
			if !e.truncated && e.cancelErr == nil {
				continue // next chunk of the same tick event
			}
			// A truncated or canceled tick event abandons its remaining
			// chunks, but the event's Ideal gates still fire.
			tickLeft = 0
		}
		if uint64(i) >= nextGate {
			nextGate = e.idealGate(uint64(i), h.now)
		}
		i++
	}

	e.hotSettle(h)
	return nil
}
