// Package thermal is the HotSpot-like lumped-RC thermal model used to close
// the leakage–temperature loop: the simulator samples block powers every
// 10 000 cycles (as the paper does), the model integrates the block
// temperatures forward, and the updated temperatures scale the leakage of
// the next interval.
//
// The floorplan generalises the CMP of Figure 1 to N cores: each core sits
// next to its private L2 bank, the shared bus runs through the middle, and
// the cores form a row (core i laterally coupled to core i-1).  The paper's
// system is the N=4 instance; the block order — cores, then banks, then the
// bus — and the neighbour enumeration are independent of N, so the 4-core
// model integrates exactly the same floating-point sequence it always did.
// Each block has a thermal capacitance and a resistance to the heat sink;
// adjacent blocks are coupled by lateral resistances.
package thermal

import (
	"fmt"
	"math"
)

// Block identifies one floorplan unit.
type Block int

// MaxCores bounds the floorplan size (the row-of-cores layout stops being
// physically meaningful long before this).
const MaxCores = 64

// Floorplan is the block layout of an N-core CMP: blocks 0..N-1 are the
// cores, N..2N-1 the private L2 banks, 2N the shared bus.
type Floorplan struct {
	// Cores is the number of core/L2-bank pairs.
	Cores int
}

// NumBlocks returns the number of floorplan units.
func (f Floorplan) NumBlocks() int { return 2*f.Cores + 1 }

// CoreBlock returns the floorplan block of core i.
func (f Floorplan) CoreBlock(i int) Block { return Block(i) }

// L2Block returns the floorplan block of L2 bank i.
func (f Floorplan) L2Block(i int) Block { return Block(f.Cores + i) }

// Bus returns the shared-bus block.
func (f Floorplan) Bus() Block { return Block(2 * f.Cores) }

// Name renders a block label ("core2", "l2bank0", "bus").
func (f Floorplan) Name(b Block) string {
	switch {
	case int(b) < f.Cores:
		return fmt.Sprintf("core%d", int(b))
	case int(b) < 2*f.Cores:
		return fmt.Sprintf("l2bank%d", int(b)-f.Cores)
	case b == f.Bus():
		return "bus"
	default:
		return fmt.Sprintf("Block(%d)", int(b))
	}
}

// Validate checks the floorplan.
func (f Floorplan) Validate() error {
	if f.Cores <= 0 || f.Cores > MaxCores {
		return fmt.Errorf("thermal: floorplan cores %d out of range [1,%d]", f.Cores, MaxCores)
	}
	return nil
}

// Config holds the RC parameters of the model.
type Config struct {
	// AmbientC is the ambient (heat-sink) temperature in °C.
	AmbientC float64
	// InitialC is the starting temperature of every block.
	InitialC float64
	// CoreRtoAmbient / L2RtoAmbient / BusRtoAmbient are the vertical
	// thermal resistances (°C per Watt).
	CoreRtoAmbient float64
	L2RtoAmbient   float64
	BusRtoAmbient  float64
	// CoreCapacitance / L2Capacitance / BusCapacitance are the thermal
	// capacitances (Joules per °C).
	CoreCapacitance float64
	L2Capacitance   float64
	BusCapacitance  float64
	// LateralR couples adjacent blocks (°C per Watt); larger means weaker
	// coupling.
	LateralR float64
	// MaxStepSeconds bounds the forward-Euler step for stability; larger
	// sampling intervals are subdivided.
	MaxStepSeconds float64
}

// DefaultConfig returns parameters that settle cores around 70-90°C and L2
// banks around 50-70°C for the power densities of the default energy model.
func DefaultConfig() Config {
	return Config{
		AmbientC:        45,
		InitialC:        55,
		CoreRtoAmbient:  2.0,
		L2RtoAmbient:    4.0,
		BusRtoAmbient:   6.0,
		CoreCapacitance: 0.03,
		L2Capacitance:   0.06,
		BusCapacitance:  0.01,
		LateralR:        8.0,
		MaxStepSeconds:  0.0005,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CoreRtoAmbient <= 0 || c.L2RtoAmbient <= 0 || c.BusRtoAmbient <= 0 {
		return fmt.Errorf("thermal: resistances must be positive")
	}
	if c.CoreCapacitance <= 0 || c.L2Capacitance <= 0 || c.BusCapacitance <= 0 {
		return fmt.Errorf("thermal: capacitances must be positive")
	}
	if c.LateralR <= 0 {
		return fmt.Errorf("thermal: LateralR must be positive")
	}
	if c.MaxStepSeconds <= 0 {
		return fmt.Errorf("thermal: MaxStepSeconds must be positive")
	}
	return nil
}

// Model integrates block temperatures over an N-core floorplan.
type Model struct {
	Floorplan

	cfg   Config
	temps []float64
	r     []float64
	c     []float64
	// neighbors lists laterally coupled blocks.
	neighbors [][]Block
	// next is the scratch buffer of one Euler sub-step.
	next []float64
	// Steps counts integration sub-steps performed.
	Steps uint64
}

// New builds a model for a CMP with the given core count; the configuration
// must validate.
func New(cfg Config, cores int) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan := Floorplan{Cores: cores}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	n := plan.NumBlocks()
	m := &Model{
		Floorplan: plan,
		cfg:       cfg,
		temps:     make([]float64, n),
		r:         make([]float64, n),
		c:         make([]float64, n),
		neighbors: make([][]Block, n),
		next:      make([]float64, n),
	}
	for b := 0; b < n; b++ {
		m.temps[b] = cfg.InitialC
		switch {
		case b < cores:
			m.r[b] = cfg.CoreRtoAmbient
			m.c[b] = cfg.CoreCapacitance
		case b < 2*cores:
			m.r[b] = cfg.L2RtoAmbient
			m.c[b] = cfg.L2Capacitance
		default:
			m.r[b] = cfg.BusRtoAmbient
			m.c[b] = cfg.BusCapacitance
		}
	}
	// Each core is adjacent to its L2 bank and to the bus; L2 banks also
	// neighbour the bus; cores neighbour the next core (ring-less row).
	bus := plan.Bus()
	for i := 0; i < cores; i++ {
		core := plan.CoreBlock(i)
		bank := plan.L2Block(i)
		m.neighbors[core] = append(m.neighbors[core], bank, bus)
		m.neighbors[bank] = append(m.neighbors[bank], core, bus)
		m.neighbors[bus] = append(m.neighbors[bus], core, bank)
		if i > 0 {
			prev := plan.CoreBlock(i - 1)
			m.neighbors[core] = append(m.neighbors[core], prev)
			m.neighbors[prev] = append(m.neighbors[prev], core)
		}
	}
	return m, nil
}

// Temp returns the current temperature of a block in °C.
func (m *Model) Temp(b Block) float64 { return m.temps[b] }

// Temps returns a copy of all block temperatures, in block order (cores,
// L2 banks, bus).
func (m *Model) Temps() []float64 { return append([]float64(nil), m.temps...) }

// MaxTemp returns the hottest block temperature.
func (m *Model) MaxTemp() float64 {
	max := m.temps[0]
	for _, t := range m.temps[1:] {
		if t > max {
			max = t
		}
	}
	return max
}

// Step integrates the model forward by dt seconds with the given per-block
// power in Watts (indexed by Block; len(powerW) must be NumBlocks()).  Long
// intervals are subdivided into MaxStepSeconds chunks for numerical
// stability.
func (m *Model) Step(powerW []float64, dt float64) {
	if dt <= 0 {
		return
	}
	if len(powerW) != len(m.temps) {
		panic(fmt.Sprintf("thermal: power map has %d blocks, floorplan has %d", len(powerW), len(m.temps)))
	}
	remaining := dt
	for remaining > 0 {
		h := math.Min(remaining, m.cfg.MaxStepSeconds)
		m.euler(powerW, h)
		remaining -= h
	}
}

// euler performs one forward-Euler sub-step.
func (m *Model) euler(powerW []float64, h float64) {
	m.Steps++
	next := m.next
	for b := range m.temps {
		// Heat in: block power.  Heat out: to ambient and to neighbours.
		flowOut := (m.temps[b] - m.cfg.AmbientC) / m.r[b]
		for _, n := range m.neighbors[b] {
			flowOut += (m.temps[b] - m.temps[n]) / m.cfg.LateralR
		}
		dTdt := (powerW[b] - flowOut) / m.c[b]
		next[b] = m.temps[b] + h*dTdt
		// Guard against numerical explosion from absurd inputs.
		if next[b] < m.cfg.AmbientC-50 {
			next[b] = m.cfg.AmbientC - 50
		}
		if next[b] > 400 {
			next[b] = 400
		}
	}
	copy(m.temps, next)
}

// SteadyState returns the temperatures the model converges to under a
// constant power map, by integrating until the largest change per second
// falls below tolC.  It does not modify the model state.
func (m *Model) SteadyState(powerW []float64, tolC float64) []float64 {
	saved := append([]float64(nil), m.temps...)
	savedSteps := m.Steps
	defer func() {
		copy(m.temps, saved)
		m.Steps = savedSteps
	}()
	before := make([]float64, len(m.temps))
	for i := 0; i < 100000; i++ {
		copy(before, m.temps)
		m.Step(powerW, 0.01)
		maxDelta := 0.0
		for b := range before {
			d := math.Abs(m.temps[b] - before[b])
			if d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < tolC*0.01 {
			break
		}
	}
	return append([]float64(nil), m.temps...)
}
