package decay

import (
	"cmpleak/internal/coherence"
	"cmpleak/internal/sim"
)

// counterLevels is the saturation value of the per-line hierarchical decay
// counter.  The paper follows Kaxiras et al.: a small (2-bit) counter per
// line incremented by a cache-wide global tick, so that a line is turned off
// after between (levels-1) and levels global ticks without an access.
const counterLevels = 4

// Adaptive Mode Control parameters.  The interval stays within a factor of
// adaptiveRange of the configured one; it doubles when a window of
// adaptiveWindows decay intervals sees more than adaptiveTargetMisses L2
// misses, and halves when it sees fewer than half of them.
const (
	adaptiveRange        = 8
	adaptiveTargetMisses = 64
	adaptiveWindows      = 4
	// adaptiveMinInterval is the shortest adapted interval: one cycle per
	// tick.
	adaptiveMinInterval = counterLevels
)

// tickPeriod is the period of the cache-wide tick that advances the
// per-line counters for a decay interval.
func tickPeriod(interval sim.Cycle) sim.Cycle {
	return max(interval/counterLevels, 1)
}

// startTicks launches the global tick of one controller as one recurring
// engine event: one pooled node, re-inserted after each tick.  Adaptive
// Mode retunes its period after each tick, so the next tick already runs at
// the adapted rate.
func (t *Technique) startTicks(eng *sim.Engine, ctrl Controller) {
	skipModified := t.spec.Kind == KindSelectiveDecay
	interval := t.spec.DecayCycles
	var w *adaptiveWindow
	if t.spec.Kind == KindAdaptive {
		interval = max(interval, adaptiveMinInterval)
		w = &adaptiveWindow{interval: interval, missesAtWin: ctrl.Array().Misses.Value()}
	}
	var r *sim.Recurring
	r = eng.ScheduleRecurring(tickPeriod(interval), func(sim.Cycle) bool {
		tick(ctrl, skipModified)
		if w != nil {
			t.adapt(ctrl, w)
			r.SetPeriod(tickPeriod(w.interval))
		}
		return true
	})
}

// tick runs one global tick over the controller's array: the counter of
// every armed, powered, stable line advances, and each line that saturates
// is turned off as the scan reaches it, so turn-offs issue in flat-array
// (set-major) order.  Turning a line off cannot change what the rest of the
// scan observes: RequestTurnOff mutates only that line (plus the L1 copy,
// the bus and memory, none of which the scan reads).  Selective Decay
// (skipModified) never advances a Modified line, even if it became Modified
// without the arming hook firing.
func tick(ctrl Controller, skipModified bool) {
	arr := ctrl.Array()
	assoc := arr.Assoc()
	for idx, n := 0, arr.NumLines(); idx < n; idx++ {
		ln := arr.LineAt(idx)
		if !ln.Valid || !ln.Powered || !ln.DecayArmed {
			continue
		}
		// The turn-off signal may only start from a stationary state
		// (Figure 2); transient lines are reconsidered next tick.
		set, way := idx/assoc, idx%assoc
		st := ctrl.LineState(set, way)
		if !st.Stable() || skipModified && st == coherence.Modified {
			continue
		}
		if ln.DecayCounter < counterLevels {
			ln.DecayCounter++
		}
		if ln.DecayCounter >= counterLevels {
			ctrl.RequestTurnOff(set, way)
		}
	}
}

// adaptiveWindow is one controller's Adaptive Mode Control state.
type adaptiveWindow struct {
	interval    sim.Cycle
	ticksInWin  uint64
	missesAtWin uint64
}

// adapt applies the Adaptive Mode Control window logic after a tick: if
// misses in the window exceed the target, decay becomes less aggressive
// (the interval doubles); if they fall well below it, more aggressive (the
// interval halves).  The paper itself evaluates only fixed decay intervals;
// this extension serves the ablation benches of the root bench_test.go.
func (t *Technique) adapt(ctrl Controller, w *adaptiveWindow) {
	w.ticksInWin++
	if w.ticksInWin < adaptiveWindows*counterLevels {
		return
	}
	w.ticksInWin = 0
	misses := ctrl.Array().Misses.Value()
	windowMisses := misses - w.missesAtWin
	w.missesAtWin = misses
	switch {
	case windowMisses > adaptiveTargetMisses && w.interval < t.spec.DecayCycles*adaptiveRange:
		w.interval *= 2
		t.Adaptations.Inc()
	case windowMisses < adaptiveTargetMisses/2 && w.interval > t.spec.DecayCycles/adaptiveRange:
		w.interval = max(w.interval/2, adaptiveMinInterval)
		t.Adaptations.Inc()
	}
}
