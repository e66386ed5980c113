package sim

// Tests for the timing-wheel internals: horizon boundaries, far-to-near
// migration order, pooled-argument events, recurring period changes, and a
// randomized cross-check against the reference heap scheduler from
// bench_test.go.

import (
	"testing"
)

func TestFarEventBeyondHorizon(t *testing.T) {
	e := NewEngine()
	var ran []Cycle
	record := func() { ran = append(ran, e.Now()) }
	// One event per decade around the wheel horizon.
	for _, d := range []Cycle{1, wheelSize - 1, wheelSize, wheelSize + 1, 10 * wheelSize} {
		e.Schedule(d, record)
	}
	if pending(e) != 5 {
		t.Fatalf("Pending = %d, want 5", pending(e))
	}
	e.Run()
	want := []Cycle{1, wheelSize - 1, wheelSize, wheelSize + 1, 10 * wheelSize}
	if len(ran) != len(want) {
		t.Fatalf("ran %d events, want %d", len(ran), len(want))
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("execution times %v, want %v", ran, want)
		}
	}
}

// FarEvents counts exactly the insertions that missed the near wheel —
// including recurring refires — so wheel sizing can be judged from a run's
// FarEvents/Executed ratio instead of guessed.
func TestFarEventsCounter(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	e.Schedule(1, noop)
	e.Schedule(wheelSize-1, noop)
	if e.FarEvents != 0 {
		t.Fatalf("near-horizon schedules counted as far: %d", e.FarEvents)
	}
	e.Schedule(wheelSize, noop)
	e.Schedule(10*wheelSize, noop)
	if e.FarEvents != 2 {
		t.Fatalf("FarEvents = %d after two far schedules, want 2", e.FarEvents)
	}
	e.Run()
	if e.FarEvents != 2 {
		t.Fatalf("FarEvents moved during execution: %d, want 2", e.FarEvents)
	}
	// A recurring event beyond the horizon hits the heap once per refire.
	fired := 0
	e.ScheduleRecurring(2*wheelSize, func(Cycle) bool {
		fired++
		return fired < 3
	})
	e.Run()
	if fired != 3 {
		t.Fatalf("recurring fired %d times, want 3", fired)
	}
	if e.FarEvents != 5 {
		t.Fatalf("FarEvents = %d after three far refires, want 5", e.FarEvents)
	}
}

func TestFarThenNearSameCycleFIFO(t *testing.T) {
	// A far-scheduled event and a later near-scheduled event land on the
	// same cycle: the far one was scheduled first and must run first.
	e := NewEngine()
	target := Cycle(3 * wheelSize)
	var order []int
	e.ScheduleAt(target, func() { order = append(order, 1) }) // far at schedule time
	e.Schedule(target-10, func() {
		// Now target is within the horizon; this schedules directly into
		// the wheel after the migrated far event.
		e.ScheduleAt(target, func() { order = append(order, 2) })
	})
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("same-cycle far/near order = %v, want [1 2]", order)
	}
}

func TestFarSameCycleKeepsScheduleOrder(t *testing.T) {
	// Multiple far events on one cycle migrate in their original schedule
	// order, not heap pop luck.
	e := NewEngine()
	target := Cycle(5 * wheelSize)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.ScheduleAt(target, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("far same-cycle events not FIFO: %v", order)
		}
	}
}

func TestClockJumpAcrossManyWraps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(1000*wheelSize+7, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 1000*wheelSize+7 {
		t.Fatalf("clock at %d after long jump (ran=%v)", e.Now(), ran)
	}
}

func TestRunUntilMigratesFarEvents(t *testing.T) {
	e := NewEngine()
	var ran []Cycle
	record := func() { ran = append(ran, e.Now()) }
	e.Schedule(2*wheelSize, record)
	e.Schedule(4*wheelSize, record)
	e.RunUntil(3 * wheelSize)
	if len(ran) != 1 || ran[0] != 2*wheelSize {
		t.Fatalf("RunUntil ran %v, want [%d]", ran, 2*wheelSize)
	}
	if e.Now() != 3*wheelSize {
		t.Fatalf("clock at %d, want %d", e.Now(), 3*wheelSize)
	}
	// The remaining far event must still fire after the limit advance
	// moved the horizon over it.
	e.Run()
	if len(ran) != 2 || ran[1] != 4*wheelSize {
		t.Fatalf("remaining far event ran %v", ran)
	}
}

func TestScheduleArg(t *testing.T) {
	e := NewEngine()
	type req struct{ v int }
	var got []int
	fn := ArgFunc(func(a any) { got = append(got, a.(*req).v) })
	e.ScheduleArg(5, fn, &req{v: 1})
	e.ScheduleArg(3, fn, &req{v: 2})
	e.ScheduleArg(5, fn, &req{v: 3})
	e.Run()
	if len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("ScheduleArg order = %v, want [2 1 3]", got)
	}
}

func TestScheduleArgNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil ArgFunc did not panic")
		}
	}()
	e.ScheduleArg(1, nil, 42)
}

func TestEventPoolReuse(t *testing.T) {
	// Steady-state schedule/step traffic must recycle nodes: the free list
	// bounds live nodes by the peak concurrency, not the event count.
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 10*eventChunk; i++ {
		e.Schedule(1, fn)
		if !e.Step() {
			t.Fatal("Step returned false with event pending")
		}
	}
	if pending(e) != 0 {
		t.Fatalf("Pending = %d after drain, want 0", pending(e))
	}
	if e.Executed != 10*eventChunk {
		t.Fatalf("Executed = %d, want %d", e.Executed, 10*eventChunk)
	}
}

func TestRecurringSetPeriod(t *testing.T) {
	e := NewEngine()
	var times []Cycle
	var r *Recurring
	r = e.ScheduleRecurring(10, func(now Cycle) bool {
		times = append(times, now)
		if len(times) == 2 {
			r.SetPeriod(100)
		}
		return len(times) < 4
	})
	e.Run()
	want := []Cycle{10, 20, 120, 220}
	if len(times) != len(want) {
		t.Fatalf("fired %d times, want %d (%v)", len(times), len(want), times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("firing times %v, want %v", times, want)
		}
	}
	if r.period != 100 {
		t.Fatalf("Period() = %d, want 100", r.period)
	}
}

func TestRecurringStopReclaimsNode(t *testing.T) {
	e := NewEngine()
	r := e.ScheduleRecurring(5, func(Cycle) bool { return true })
	e.RunUntil(12) // fires at 5, 10; next queued at 15
	r.Stop()
	e.Run() // the queued node is dispatched as a no-op and recycled
	if r.Fired != 2 {
		t.Fatalf("Fired = %d, want 2", r.Fired)
	}
	if pending(e) != 0 {
		t.Fatalf("Pending = %d after stop drain, want 0", pending(e))
	}
}

func TestRecurringFarPeriod(t *testing.T) {
	e := NewEngine()
	var times []Cycle
	period := Cycle(3*wheelSize + 11)
	e.ScheduleRecurring(period, func(now Cycle) bool {
		times = append(times, now)
		return len(times) < 3
	})
	e.Run()
	want := []Cycle{period, 2 * period, 3 * period}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("far recurring times %v, want %v", times, want)
		}
	}
}

// TestCrossCheckAgainstReferenceHeap drives the wheel engine and the
// reference heap scheduler with an identical deterministic pseudo-random
// schedule (including nested scheduling from callbacks and same-cycle
// collisions) and requires the exact same execution order.
func TestCrossCheckAgainstReferenceHeap(t *testing.T) {
	const seeds = 5
	for seed := uint64(1); seed <= seeds; seed++ {
		wheelOrder := runWheelTrace(seed)
		heapOrder := runHeapTrace(seed)
		if len(wheelOrder) != len(heapOrder) {
			t.Fatalf("seed %d: wheel ran %d events, heap ran %d", seed, len(wheelOrder), len(heapOrder))
		}
		for i := range wheelOrder {
			if wheelOrder[i] != heapOrder[i] {
				t.Fatalf("seed %d: execution order diverges at %d: wheel=%d heap=%d",
					seed, i, wheelOrder[i], heapOrder[i])
			}
		}
	}
}

// traceDelay derives the next pseudo-random delay, mixing tiny, same-cycle,
// near-horizon and far-horizon values.
func traceDelay(x *uint64) Cycle {
	*x = *x*6364136223846793005 + 1442695040888963407
	v := (*x >> 33) % 100
	switch {
	case v < 50:
		return Cycle(v % 8) // dense small delays incl. zero
	case v < 80:
		return Cycle(v * 7) // sub-horizon spread
	case v < 95:
		return Cycle(wheelSize - 4 + v%8) // straddles the horizon edge
	default:
		return Cycle(wheelSize * (2 + v%3)) // far heap
	}
}

func runWheelTrace(seed uint64) []int {
	e := NewEngine()
	var order []int
	x := seed
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		myID := id
		id++
		e.Schedule(traceDelay(&x), func() {
			order = append(order, myID)
			if depth < 3 {
				schedule(depth + 1)
				schedule(depth + 1)
			}
		})
	}
	for i := 0; i < 20; i++ {
		schedule(0)
	}
	e.Run()
	return order
}

func runHeapTrace(seed uint64) []int {
	e := &baselineEngine{}
	var order []int
	x := seed
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		myID := id
		id++
		e.schedule(traceDelay(&x), func() {
			order = append(order, myID)
			if depth < 3 {
				schedule(depth + 1)
				schedule(depth + 1)
			}
		})
	}
	for i := 0; i < 20; i++ {
		schedule(0)
	}
	for e.step() {
	}
	return order
}
