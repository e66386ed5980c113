package sim

// Order-equivalence property test for the bucket-drain run loop.  The drain
// loop (Run/RunLimit/RunUntil) claims to execute events in exactly the order
// a per-event Step loop would: same-cycle appends in FIFO order, recurring
// refires in (cycle, sequence) position.  This file checks that claim on
// randomized schedules: the same pseudo-random event web — callbacks that
// spawn children with near/zero/far delays, start and stop recurring
// events, and halt the loop mid-bucket — is driven
// once by Step, once by RunLimit (resuming across halts), and once by
// RunUntil in small limit increments, and all three must produce identical
// (id, cycle) firing logs.
//
// The spawn decisions are drawn from a per-engine Rand with a shared seed
// and consumed in firing order, so the webs stay identical across engines
// exactly as long as the firing orders do; any divergence surfaces as a log
// mismatch at the first differing event.

import (
	"fmt"
	"testing"
)

// fireRec is one log entry: which event fired and when.
type fireRec struct {
	id  int
	now Cycle
}

// drainWeb grows a randomized event web on one engine and records the
// firing order.
type drainWeb struct {
	t      *testing.T
	e      *Engine
	rng    *Rand
	log    []fireRec
	nextID int
	budget int // spawns still allowed; bounds the web
	halt   bool
}

// drainDelays mixes the delay classes the drain loop treats differently:
// same-cycle appends, the adjacent bucket, short near delays, the last
// wheel slot, the first far cycle, and a deep far cycle.
var drainDelays = [8]Cycle{0, 0, 1, 3, 7, wheelSize - 1, wheelSize, 3*wheelSize + 17}

func (w *drainWeb) fire(id int) {
	w.log = append(w.log, fireRec{id: id, now: w.e.Now()})
	n := w.rng.Intn(3)
	for i := 0; i < n && w.budget > 0; i++ {
		w.budget--
		w.spawn()
	}
	// The halt draw is consumed unconditionally so the reference web (which
	// never halts — Halt is a run-loop concern Step ignores) stays on the
	// same random stream as the drain webs.
	if w.rng.Intn(16) == 0 && w.halt {
		// Halt mid-bucket; the drivers resume and the order must not change.
		w.e.Halt()
	}
}

// spawn schedules one child event of a random kind.
func (w *drainWeb) spawn() {
	id := w.nextID
	w.nextID++
	switch w.rng.Intn(5) {
	case 0, 1: // plain function, near or far delay
		w.e.Schedule(drainDelays[w.rng.Intn(len(drainDelays))], func() { w.fire(id) })
	case 2: // pre-bound argument event
		w.e.ScheduleArg(drainDelays[w.rng.Intn(len(drainDelays))],
			func(a any) { w.fire(a.(int)) }, id)
	case 3: // recurring, stops itself after a few firings
		left := 1 + w.rng.Intn(3)
		w.e.ScheduleRecurring(1+Cycle(w.rng.Intn(5)), func(Cycle) bool {
			w.fire(id)
			left--
			return left > 0
		})
	default: // recurring stopped externally by a later one-shot event
		r := w.e.ScheduleRecurring(1+Cycle(w.rng.Intn(5)), func(Cycle) bool {
			w.fire(id)
			return true
		})
		stopID := w.nextID
		w.nextID++
		w.e.Schedule(drainDelays[w.rng.Intn(len(drainDelays))], func() {
			w.fire(stopID)
			r.Stop()
		})
	}
}

// seedWeb plants the initial events; every engine gets the same layout.
func seedWeb(w *drainWeb) {
	for i := 0; i < 16; i++ {
		w.budget--
		w.spawn()
	}
}

func newDrainWeb(t *testing.T, seed uint64, halt bool) *drainWeb {
	w := &drainWeb{t: t, e: NewEngine(), rng: NewRand(seed), budget: 400, halt: halt}
	seedWeb(w)
	return w
}

// TestDrainOrderMatchesStep is the property test: for many seeds, the
// bucket-drain loop and the per-event Step loop execute the same randomized
// web in the same order, and RunUntil in small increments does too.
func TestDrainOrderMatchesStep(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Reference: one event per Step call.  Halt is a run-loop
			// concern, so the reference web never sets the flag.
			ref := newDrainWeb(t, seed, false)
			for ref.e.Step() {
			}

			// Drain loop, resuming across random mid-bucket halts.
			drain := newDrainWeb(t, seed, true)
			for drain.e.RunLimit(CycleMax) == RunHalted {
			}

			// RunUntil in 7-cycle increments: the drain must stop at the
			// limit, survive halts, and pick up exactly where it left off.
			inc := newDrainWeb(t, seed, true)
			for limit := Cycle(0); pending(inc.e) > 0; limit += 7 {
				inc.e.RunUntil(limit)
			}

			checkSameLog(t, "RunLimit", ref.log, drain.log)
			checkSameLog(t, "RunUntil", ref.log, inc.log)
			if ref.e.Executed == 0 || ref.e.Executed != drain.e.Executed {
				t.Fatalf("Executed mismatch: ref=%d drain=%d", ref.e.Executed, drain.e.Executed)
			}
		})
	}
}

func checkSameLog(t *testing.T, name string, ref, got []fireRec) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: fired %d events, Step reference fired %d", name, len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s: event %d diverged: got (id=%d, cycle=%d), Step reference (id=%d, cycle=%d)",
				name, i, got[i].id, got[i].now, ref[i].id, ref[i].now)
		}
	}
}

// TestRunLimitStatuses pins the three return reasons and the clock contract:
// RunLimited leaves the clock at the last executed cycle, RunUntil advances
// it to the limit, and a pre-set Halt makes the next run return immediately
// without executing anything.
func TestRunLimitStatuses(t *testing.T) {
	e := NewEngine()
	var ran []Cycle
	for _, d := range []Cycle{2, 5, 9} {
		e.Schedule(d, func() { ran = append(ran, e.Now()) })
	}
	if st := e.RunLimit(5); st != RunLimited {
		t.Fatalf("RunLimit(5) = %v, want RunLimited", st)
	}
	if e.Now() != 5 || len(ran) != 2 {
		t.Fatalf("after RunLimit(5): now=%d ran=%v", e.Now(), ran)
	}
	e.RunUntil(7)
	if e.Now() != 7 {
		t.Fatalf("RunUntil(7) left clock at %d", e.Now())
	}
	e.Halt()
	if st := e.RunLimit(CycleMax); st != RunHalted {
		t.Fatalf("pre-halted RunLimit = %v, want RunHalted", st)
	}
	if len(ran) != 2 {
		t.Fatalf("pre-halted RunLimit executed events: %v", ran)
	}
	if st := e.RunLimit(CycleMax); st != RunDrained {
		t.Fatalf("final RunLimit = %v, want RunDrained", st)
	}
	if len(ran) != 3 || ran[2] != 9 {
		t.Fatalf("final drain ran %v", ran)
	}
}

// TestHaltMidBucket pins the halt position: events queued behind the halting
// event on the same cycle stay queued and run on resume, in order.
func TestHaltMidBucket(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(4, func() { order = append(order, 1); e.Halt() })
	e.Schedule(4, func() { order = append(order, 2) })
	e.Schedule(4, func() { order = append(order, 3) })
	if st := e.RunLimit(CycleMax); st != RunHalted {
		t.Fatalf("RunLimit = %v, want RunHalted", st)
	}
	if len(order) != 1 || pending(e) != 2 {
		t.Fatalf("halt left order=%v pending=%d", order, pending(e))
	}
	e.Run()
	want := [3]int{1, 2, 3}
	if len(order) != 3 || [3]int(order) != want {
		t.Fatalf("resume ran %v, want %v", order, want)
	}
}
