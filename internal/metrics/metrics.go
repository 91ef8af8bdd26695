// Package metrics implements the paper's zombie-aware redefinition of dead
// block prediction metrics (Section IV) and the zombie-ratio-vs-voltage
// profile of Figure 4.
//
// Every cache block *generation* (fill → eviction / power outage /
// re-demand of a gated block) is classified exactly once:
//
//   - TP  (true positive):  the block was power-gated and never demanded
//     again before its generation ended — a dead or zombie block correctly
//     deactivated.
//   - FP  (false positive): the block was gated but demanded again in the
//     same power cycle — a live block mistakenly deactivated ("wrong
//     kill"), costing an extra miss.
//   - TN  (true negative):  the block was kept powered, was reused, and
//     ended by ordinary eviction — a live block correctly retained.
//   - FN  (false negative): the block was kept powered but never reused
//     before eviction — a dead block that leaked for nothing.
//   - ZombieFN ("Missed Prediction (FN)" in Figure 6): the block was kept
//     powered but lost to a power outage without reuse — the zombie case
//     conventional predictors cannot see.
package metrics

// Counts are the five prediction outcome tallies. ZombieFN is reported
// separately from FN exactly as the paper's Figure 6 does.
type Counts struct {
	TP       uint64
	FP       uint64
	TN       uint64
	FN       uint64
	ZombieFN uint64
}

// Total returns the number of classified generations.
func (c Counts) Total() uint64 { return c.TP + c.FP + c.TN + c.FN + c.ZombieFN }

// Coverage is Equation 1: correctly identified dead/zombie blocks over all
// dead/zombie blocks.
func (c Counts) Coverage() float64 {
	den := c.TP + c.FN + c.ZombieFN
	if den == 0 {
		return 0
	}
	return float64(c.TP) / float64(den)
}

// Accuracy is Equation 2: correct predictions over all predictions.
func (c Counts) Accuracy() float64 {
	tot := c.Total()
	if tot == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(tot)
}

// Rate returns each outcome as a fraction of the total (TP, FP, TN, FN,
// ZombieFN order).
func (c Counts) Rate() (tp, fp, tn, fn, zfn float64) {
	tot := float64(c.Total())
	if tot == 0 {
		return
	}
	return float64(c.TP) / tot, float64(c.FP) / tot, float64(c.TN) / tot,
		float64(c.FN) / tot, float64(c.ZombieFN) / tot
}

// LastUse is one closed block generation as the Ideal oracle needs it:
// the block's address and the trace event of its final access.
type LastUse struct {
	Event uint64
	Addr  uint64
}

// gen is one in-flight generation.
type gen struct {
	active    bool
	gated     bool
	uses      uint32
	addr      uint64
	lastEvent uint64
	fillTime  float64
	lastUse   float64
	gatedTime float64
}

// Tracker classifies generations and accumulates Counts from the
// simulator's per-block lifecycle events. The zero value is unusable;
// construct with NewTracker.
type Tracker struct {
	ways   int
	gens   []gen
	counts Counts

	// Deactivation-duration accounting: energy savings scale with how
	// long blocks stay off (Section VI-C's caveat about brief
	// deactivations), so we integrate gated time.
	gatedTime float64

	profile *ZombieProfile // optional Figure 4 collection

	// lastUses collects every closed generation in closing order once
	// RecordLastUses is called: the Ideal oracle's recording pass.
	recording bool
	lastUses  []LastUse
}

// NewTracker returns a tracker for a sets×ways cache.
func NewTracker(sets, ways int) *Tracker {
	return &Tracker{ways: ways, gens: make([]gen, sets*ways)}
}

// EnableZombieProfile attaches a Figure 4 voltage-bucketed zombie profile.
func (t *Tracker) EnableZombieProfile(p *ZombieProfile) { t.profile = p }

// Counts returns the accumulated classification tallies.
func (t *Tracker) Counts() Counts { return t.counts }

// GatedTime returns the total block-seconds spent powered off.
func (t *Tracker) GatedTime() float64 { return t.gatedTime }

// RecordLastUses makes the tracker keep a LastUse for every generation it
// closes from now on, FlushOpen included.
func (t *Tracker) RecordLastUses() { t.recording = true }

// LastUses returns the generations closed since RecordLastUses, in the
// order they closed.
func (t *Tracker) LastUses() []LastUse { return t.lastUses }

func (t *Tracker) at(set, way int) *gen { return &t.gens[set*t.ways+way] }

// BlockFilled starts a generation at (set, way) for block addr.
func (t *Tracker) BlockFilled(set, way int, addr uint64, event uint64, now float64) {
	g := t.at(set, way)
	if g.active {
		// The simulator should have ended the previous generation; treat
		// a stale one as an ordinary eviction for robustness.
		t.close(g, false, now)
	}
	*g = gen{active: true, addr: addr, uses: 1, lastEvent: event, fillTime: now, lastUse: now}
}

// BlockHit records a demand reuse.
func (t *Tracker) BlockHit(set, way int, event uint64, now float64) {
	g := t.at(set, way)
	if g.active {
		g.uses++
		g.lastEvent = event
		g.lastUse = now
	}
}

// BlockGated records that a predictor powered the block off.
func (t *Tracker) BlockGated(set, way int, _ uint64, now float64) {
	g := t.at(set, way)
	if g.active && !g.gated {
		g.gated = true
		g.gatedTime = now
	}
}

// BlockWrongKill records a demand miss on a gated block: the generation
// ends as FP (the subsequent refill starts a new one).
func (t *Tracker) BlockWrongKill(set, way int, _ uint64, now float64) {
	g := t.at(set, way)
	if !g.active {
		return
	}
	t.counts.FP++
	t.gatedTime += now - g.gatedTime
	g.active = false
}

// BlockEvicted ends the generation by ordinary replacement.
func (t *Tracker) BlockEvicted(set, way int, _ uint64, now float64) {
	g := t.at(set, way)
	if !g.active {
		return
	}
	t.close(g, false, now)
}

// BlockLostAtOutage ends the generation because the power failed and the
// block was not checkpointed.
func (t *Tracker) BlockLostAtOutage(set, way int, _ uint64, now float64) {
	g := t.at(set, way)
	if !g.active {
		return
	}
	if t.profile != nil && !g.gated {
		t.profile.resolveGen(g.fillTime, g.lastUse)
	}
	t.close(g, true, now)
}

// close classifies and retires a generation.
func (t *Tracker) close(g *gen, outage bool, now float64) {
	if t.recording {
		t.lastUses = append(t.lastUses, LastUse{Event: g.lastEvent, Addr: g.addr})
	}
	switch {
	case g.gated:
		// Gated and never re-demanded (re-demands go through
		// BlockWrongKill): a correct kill.
		t.counts.TP++
		t.gatedTime += now - g.gatedTime
	case outage:
		t.counts.ZombieFN++
	case g.uses > 1:
		t.counts.TN++
	default:
		t.counts.FN++
	}
	g.active = false
}

// FlushOpen retires any still-open generations at end of simulation; they
// are classified as if evicted (a block still holding useful data at
// program exit was correctly retained if reused).
func (t *Tracker) FlushOpen(now float64) {
	for i := range t.gens {
		if t.gens[i].active {
			t.close(&t.gens[i], false, now)
		}
	}
}
