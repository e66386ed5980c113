package decay

import (
	"fmt"
	"reflect"
	"testing"

	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/sim"
)

// bigMockController is a mockController over a 256 KB array (4096 lines,
// the per-core share of the paper's 1 MB configuration).
func bigMockController(eng *sim.Engine) *mockController {
	cfg := cache.Config{Name: "bigL2", SizeBytes: 256 * 1024, LineBytes: 64, Assoc: 4, LatencyCycles: 6}
	return &mockController{
		eng:    eng,
		arr:    cache.MustNew(cfg),
		states: make(map[[2]int]coherence.State),
	}
}

// populate fills the array with a deterministic mix of states, arming and
// counter values so a tick both advances counters and triggers turn-offs.
func populate(m *mockController) {
	arr := m.arr
	n := arr.NumLines()
	assoc := arr.Assoc()
	for idx := 0; idx < n; idx++ {
		if idx%3 == 0 {
			continue // leave a third of the lines invalid
		}
		set, way := idx/assoc, idx%assoc
		st := coherence.Shared
		switch idx % 5 {
		case 1:
			st = coherence.Exclusive
		case 2:
			st = coherence.Modified
		case 4:
			st = coherence.TransientDirty
		}
		arr.Install(0, set, way)
		ln := arr.Line(set, way)
		ln.Tag = 0 // tag is irrelevant here; the scan never reads it
		arr.PowerOn(set, way, 0)
		m.states[[2]int{set, way}] = st
		ln.State = uint8(st)
		ln.DecayArmed = idx%7 != 0
		ln.DecayCounter = uint8(idx % (counterLevels + 1))
	}
}

// snapshot captures the observable per-line decay state.
func snapshot(arr *cache.Cache) [][4]uint8 {
	out := make([][4]uint8, arr.NumLines())
	for i := 0; i < arr.NumLines(); i++ {
		ln := arr.LineAt(i)
		out[i] = [4]uint8{b2u(ln.Valid), b2u(ln.Powered), b2u(ln.DecayArmed), ln.DecayCounter}
	}
	return out
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// referenceTick is the collect-then-turn-off scan the production tick must
// match: advance every counter first, collecting the saturated lines, then
// request their turn-offs in flat-array order.
func referenceTick(ctrl Controller, skipModified bool) {
	arr := ctrl.Array()
	assoc := arr.Assoc()
	var due []int
	for idx := 0; idx < arr.NumLines(); idx++ {
		ln := arr.LineAt(idx)
		if !ln.Valid || !ln.Powered || !ln.DecayArmed {
			continue
		}
		st := ctrl.LineState(idx/assoc, idx%assoc)
		if !st.Stable() || skipModified && st == coherence.Modified {
			continue
		}
		if ln.DecayCounter < counterLevels {
			ln.DecayCounter++
		}
		if ln.DecayCounter >= counterLevels {
			due = append(due, idx)
		}
	}
	for _, idx := range due {
		ctrl.RequestTurnOff(idx/assoc, idx%assoc)
	}
}

// fixtureSpec is the technique the scan tests drive: a 400-cycle interval
// ticks every 100 cycles.
func fixtureSpec(selective bool) Spec {
	if selective {
		return Spec{Kind: KindSelectiveDecay, DecayCycles: 400}
	}
	return Spec{Kind: KindDecay, DecayCycles: 400}
}

// runTicks drives counterLevels+1 global ticks over the populated fixture,
// through the production technique or, with reference set, through
// referenceTick on a recurring event of the same period, and returns the
// final line state and the turn-off sequence.
func runTicks(t *testing.T, reference, selective, deferTurnOff bool) ([][4]uint8, [][2]int) {
	t.Helper()
	eng := sim.NewEngine()
	m := bigMockController(eng)
	populate(m)
	m.deferTurnOff = deferTurnOff
	spec := fixtureSpec(selective)
	period := tickPeriod(spec.DecayCycles)
	if reference {
		eng.ScheduleRecurring(period, func(sim.Cycle) bool {
			referenceTick(m, selective)
			return true
		})
	} else {
		newTech(t, spec).Start(eng, m)
	}
	eng.RunUntil(period * (counterLevels + 1))
	return snapshot(m.arr), m.turnOffs
}

// The single-pass scan, which turns each saturated line off as it reaches
// it, must be observably identical to the collect-then-turn-off reference:
// same counter advances, same turn-off sequence, same final state.
func TestSinglePassScanMatchesReference(t *testing.T) {
	for _, selective := range []bool{false, true} {
		for _, deferTurnOff := range []bool{false, true} {
			t.Run(fmt.Sprintf("selective=%v/defer=%v", selective, deferTurnOff), func(t *testing.T) {
				wantState, wantOffs := runTicks(t, true, selective, deferTurnOff)
				gotState, gotOffs := runTicks(t, false, selective, deferTurnOff)
				if len(wantOffs) == 0 {
					t.Fatal("scan never requested a turn-off; the fixture is too weak")
				}
				if !reflect.DeepEqual(gotState, wantState) {
					t.Fatal("final line state diverges from the reference scan")
				}
				if !reflect.DeepEqual(gotOffs, wantOffs) {
					t.Fatalf("turn-off sequence diverges (%d vs %d requests)", len(gotOffs), len(wantOffs))
				}
			})
		}
	}
}

// startResidentTicks starts fixed decay over the populated fixture with
// every turn-off deferred, so each tick rescans a fully resident array, and
// returns a function that runs exactly one tick.
func startResidentTicks(tb testing.TB) func() {
	tb.Helper()
	eng := sim.NewEngine()
	m := bigMockController(eng)
	populate(m)
	m.deferTurnOff = true
	spec := fixtureSpec(false)
	newTech(tb, spec).Start(eng, m)
	period := tickPeriod(spec.DecayCycles)
	return func() {
		// Recycle the request log so its append growth (a test artefact,
		// not scan behaviour) does not count against the tick.
		m.turnOffs = m.turnOffs[:0]
		eng.RunUntil(eng.Now() + period)
	}
}

// A steady-state tick must not allocate: the scan walks the flat array in
// place and the tick rides one recurring engine node.
func TestTickScanAllocationFree(t *testing.T) {
	tick := startResidentTicks(t)
	tick() // warm up: grows the request log to its steady-state size
	tick()
	if allocs := testing.AllocsPerRun(10, tick); allocs != 0 {
		t.Fatalf("steady-state decay tick allocates %.1f objects/op, want 0", allocs)
	}
}
