// Package decay implements the leakage-saving techniques evaluated in the
// paper (Section IV).  All of them are built on top of the coherence-safe
// turn-off primitive provided by the L2 controller and differ only in when
// a line is gated, so one Technique type serves every Kind:
//
//   - KindAlwaysOn       — the baseline: every line is powered for the whole
//     run.
//   - KindProtocol       — a line is gated whenever the coherence protocol
//     invalidates it (and never-filled lines stay off).
//   - KindDecay          — fixed-interval cache decay with hierarchical 2-bit
//     counters; a line not accessed for the decay time is turned off.
//   - KindSelectiveDecay — decay armed only on transitions leading to Shared
//     or Exclusive; lines that become Modified do not decay.
//   - KindAdaptive       — a related-work extension (Zhou et al. Adaptive
//     Mode Control) that adjusts a global decay interval from the observed
//     miss rate; used for ablation studies.
//
// A technique observes the L2 controller through hook methods (fill, hit,
// state change, protocol invalidation) and acts on it through the
// Controller interface (power gating and the Figure 2 turn-off request).
package decay

import (
	"fmt"

	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/sim"
	"cmpleak/internal/stats"
)

// Controller is the view of the leakage-aware L2 controller a technique is
// given.  It is implemented by internal/core.Controller.
type Controller interface {
	// Array returns the underlying cache array for direct power gating and
	// counter manipulation.
	Array() *cache.Cache
	// RequestTurnOff asks the controller to turn the line off following the
	// modified MESI protocol of Figure 2 (write-back and upper-level
	// invalidation for Modified lines, immediate gating otherwise).  The
	// controller may defer the request when the line is transient.
	RequestTurnOff(set, way int)
	// LineState returns the coherence state of a line.
	LineState(set, way int) coherence.State
	// Now returns the current simulation cycle.
	Now() sim.Cycle
}

// Kind enumerates the built-in techniques.
type Kind uint8

const (
	// KindAlwaysOn is the unoptimised baseline.
	KindAlwaysOn Kind = iota
	// KindProtocol turns lines off on protocol invalidations only.
	KindProtocol
	// KindDecay is fixed-interval cache decay.
	KindDecay
	// KindSelectiveDecay is the performance-optimised decay variant.
	KindSelectiveDecay
	// KindAdaptive is the Adaptive-Mode-Control extension.
	KindAdaptive
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAlwaysOn:
		return "baseline"
	case KindProtocol:
		return "protocol"
	case KindDecay:
		return "decay"
	case KindSelectiveDecay:
		return "sel_decay"
	case KindAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Spec selects a technique and its parameters.
type Spec struct {
	Kind Kind
	// DecayCycles is the decay interval for decay-based techniques
	// (e.g. 512*1024 for the paper's "512K" configurations).
	DecayCycles sim.Cycle
	// StrictInclusion also back-invalidates the L1 when a clean line is
	// turned off (an ablation knob; the paper does not do this).
	StrictInclusion bool
}

// Name returns the figure label for the spec (e.g. "decay512K").
func (s Spec) Name() string {
	switch s.Kind {
	case KindDecay, KindSelectiveDecay, KindAdaptive:
		return fmt.Sprintf("%s%s", s.Kind, cyclesLabel(s.DecayCycles))
	default:
		return s.Kind.String()
	}
}

// cyclesLabel formats a cycle count the way the paper labels decay times
// (64K, 128K, 512K, 1M ...).
func cyclesLabel(c sim.Cycle) string {
	switch {
	case c >= 1<<20 && c%(1<<20) == 0:
		return fmt.Sprintf("%dM", c>>20)
	case c >= 1<<10 && c%(1<<10) == 0:
		return fmt.Sprintf("%dK", c>>10)
	default:
		return fmt.Sprintf("%d", c)
	}
}

// Technique is one leakage-management policy applied to every private L2 of
// the CMP.  Hook methods are invoked by the L2 controllers; Start is called
// once per controller after the system is wired.  What each hook does is
// selected by the spec's Kind.
type Technique struct {
	spec Spec

	// Adaptations counts Adaptive Mode interval changes (across all
	// controllers).
	Adaptations stats.Counter
}

// New builds the technique described by the spec.
func New(s Spec) (*Technique, error) {
	switch s.Kind {
	case KindAlwaysOn, KindProtocol:
	case KindDecay, KindSelectiveDecay, KindAdaptive:
		if s.DecayCycles == 0 {
			return nil, fmt.Errorf("decay: DecayCycles must be set for %v", s.Kind)
		}
	default:
		return nil, fmt.Errorf("decay: unknown technique kind %d", s.Kind)
	}
	return &Technique{spec: s}, nil
}

// Start initialises the technique for one controller.  The baseline powers
// the whole array; Protocol leaves it gated (valid-bit gating: lines power
// on as they are filled); the decay kinds start the controller's global
// tick.
func (t *Technique) Start(eng *sim.Engine, ctrl Controller) {
	switch t.spec.Kind {
	case KindAlwaysOn:
		ctrl.Array().PowerOnAll(eng.Now())
	case KindProtocol:
	default:
		t.startTicks(eng, ctrl)
	}
}

// arm resets a line's counter and sets whether it may decay in state st:
// always for plain and adaptive decay, only in Shared or Exclusive under
// Selective Decay, whose whole point is that lines becoming Modified never
// decay (turning them off forces an upper-level invalidation and a
// write-back, which directly hurts L1 performance).
func (t *Technique) arm(ln *cache.Line, st coherence.State) {
	ln.DecayCounter = 0
	ln.DecayArmed = t.spec.Kind != KindSelectiveDecay ||
		st == coherence.Shared || st == coherence.Exclusive
}

// OnFill is invoked when a line is installed with its initial state.
func (t *Technique) OnFill(ctrl Controller, set, way int, st coherence.State) {
	if t.HasDecayCounters() {
		t.arm(ctrl.Array().Line(set, way), st)
	}
}

// OnHit is invoked on every access that hits the line: a hit resets the
// decay counter (the line proved itself alive).
func (t *Technique) OnHit(ctrl Controller, set, way int, _ coherence.State) {
	if t.HasDecayCounters() {
		ctrl.Array().Line(set, way).DecayCounter = 0
	}
}

// OnStateChange is invoked when a line transitions between coherence
// states (stationary states only); decay re-arms the line for its new
// state.
func (t *Technique) OnStateChange(ctrl Controller, set, way int, _, newState coherence.State) {
	if t.HasDecayCounters() {
		t.arm(ctrl.Array().Line(set, way), newState)
	}
}

// OnProtocolInvalidate is invoked when the coherence protocol invalidates
// the line (remote BusRdX/BusUpgr or replacement).  Every technique but
// the baseline gates it: this is the whole Protocol technique, and decay
// subsumes it.  The controller has already moved the line to Invalid, so
// gating is safe.
func (t *Technique) OnProtocolInvalidate(ctrl Controller, set, way int) {
	if t.spec.Kind != KindAlwaysOn {
		ctrl.Array().PowerOff(set, way, ctrl.Now())
	}
}

// ExtraAccessLatency is the per-access penalty of the technique's
// circuitry: the paper charges one cycle for decay caches; valid-bit
// gating adds none.
func (t *Technique) ExtraAccessLatency() sim.Cycle {
	if t.HasDecayCounters() {
		return 1
	}
	return 0
}

// HasDecayCounters reports whether per-line counters exist, which adds
// dynamic and leakage overhead in the energy model.
func (t *Technique) HasDecayCounters() bool { return t.spec.Kind >= KindDecay }

// AreaOverhead is the fractional cache area added by the technique:
// Gated-Vdd costs 5%, and the baseline adds no gating circuitry.
func (t *Technique) AreaOverhead() float64 {
	if t.spec.Kind == KindAlwaysOn {
		return 0
	}
	return 0.05
}
