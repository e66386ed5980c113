package sim

// PeriodicFunc is invoked on every firing of a recurring event.  Returning
// false stops the event.
type PeriodicFunc func(now Cycle) bool

// Recurring is a first-class periodic event.  Unlike a callback that
// re-schedules itself, a recurring event owns a single pooled node that the
// engine re-inserts after each firing, so periodic services (decay global
// ticks, the thermal power-trace sampler) cost no allocations and no
// rescheduling churn.
type Recurring struct {
	eng     *Engine
	ev      *event // nil once the event stopped and its node was recycled
	period  Cycle
	fn      PeriodicFunc
	stopped bool
	// Fired counts how many times the callback has run.
	Fired uint64
}

// ScheduleRecurring registers fn to run every period cycles, first firing
// one period from now.  A period of zero panics: it would livelock the
// engine.
func (e *Engine) ScheduleRecurring(period Cycle, fn PeriodicFunc) *Recurring {
	if period == 0 {
		panic("sim: recurring period must be non-zero")
	}
	if fn == nil {
		panic("sim: ScheduleRecurring called with nil PeriodicFunc")
	}
	r := &Recurring{eng: e, period: period, fn: fn}
	ev := e.alloc()
	ev.when = e.now + period
	ev.rec = r
	ev.kind = kindRec
	r.ev = ev
	e.insert(ev)
	return r
}

// Stop prevents any further firings.  The queued node is reclaimed lazily
// when its cycle is reached.
func (r *Recurring) Stop() { r.stopped = true }

// Stopped reports whether Stop has been called or the callback returned
// false.
func (r *Recurring) Stopped() bool { return r.stopped }

// SetPeriod changes the interval applied from the next re-insertion on; the
// already-queued firing keeps its cycle.  Adaptive services (e.g. Adaptive
// Mode Control) retune their tick rate with this instead of cancelling and
// recreating the event.
func (r *Recurring) SetPeriod(period Cycle) {
	if period == 0 {
		panic("sim: recurring period must be non-zero")
	}
	r.period = period
}
