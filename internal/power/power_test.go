package power

import (
	"math"
	"testing"
	"testing/quick"

	"cmpleak/internal/cache"
)

func l2cfg(sizeBytes uint64) cache.Config {
	return cache.Config{Name: "L2", SizeBytes: sizeBytes, LineBytes: 64, Assoc: 8, LatencyCycles: 12}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestParamsValidation(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.ClockHz = 0 },
		func(p *Params) { p.CoreDynamicEPI = -1 },
		func(p *Params) { p.CoreLeakageWatt = -1 },
		func(p *Params) { p.GatedVddAreaOverhead = 0.9 },
		func(p *Params) { p.GatedOffResidual = 2 },
		func(p *Params) { p.DecayCounterLeakFraction = -0.1 },
		func(p *Params) { p.Leakage.ReferenceTempC = 0 },
		func(p *Params) { p.Leakage.MinTempC = 200 },
	}
	for i, mutate := range mutations {
		p := DefaultParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d should invalidate params", i)
		}
	}
}

func TestCyclesToSeconds(t *testing.T) {
	p := DefaultParams()
	p.ClockHz = 1e9
	if s := p.CyclesToSeconds(2e9); math.Abs(s-2) > 1e-12 {
		t.Fatalf("CyclesToSeconds = %v, want 2", s)
	}
}

func TestLeakageScaleAtReference(t *testing.T) {
	l := DefaultLeakageParams()
	if s := l.Scale(l.ReferenceTempC); math.Abs(s-1) > 1e-9 {
		t.Fatalf("scale at reference temperature %v, want 1", s)
	}
}

func TestLeakageScaleMonotonic(t *testing.T) {
	l := DefaultLeakageParams()
	prev := 0.0
	for temp := 25.0; temp <= 125; temp += 5 {
		s := l.Scale(temp)
		if s <= prev {
			t.Fatalf("leakage scale not increasing at %v°C", temp)
		}
		prev = s
	}
	// Leakage should grow substantially from 45°C to 105°C.
	if l.Scale(105)/l.Scale(45) < 1.5 {
		t.Fatal("temperature sensitivity too weak")
	}
}

func TestLeakageScaleClamped(t *testing.T) {
	l := DefaultLeakageParams()
	if l.Scale(-50) != l.Scale(l.MinTempC) {
		t.Fatal("low temperatures not clamped")
	}
	if l.Scale(500) != l.Scale(l.MaxTempC) {
		t.Fatal("high temperatures not clamped")
	}
}

func TestL2AccessEnergyScalesWithSize(t *testing.T) {
	p := DefaultParams()
	small := L2AccessEnergy(p, l2cfg(256*1024))
	large := L2AccessEnergy(p, l2cfg(2*1024*1024))
	if large <= small {
		t.Fatal("access energy should grow with capacity")
	}
	// Sub-linear: 8x capacity should cost well under 8x energy.
	if large/small > 4 {
		t.Fatalf("access energy scaling too steep: %v", large/small)
	}
}

func TestL2LeakageScalesLinearlyWithSize(t *testing.T) {
	p := DefaultParams()
	bank := func(size uint64) float64 {
		cfg := l2cfg(size)
		return L2LeakagePerLineWatt(p, cfg) * float64(cfg.NumLines())
	}
	oneMB, twoMB := bank(1024*1024), bank(2*1024*1024)
	if math.Abs(twoMB/oneMB-2) > 0.01 {
		t.Fatalf("leakage should double with capacity: %v vs %v", oneMB, twoMB)
	}
	if math.Abs(oneMB-p.L2LeakagePerMBWatt) > 1e-9 {
		t.Fatalf("1MB leakage %v, want %v", oneMB, p.L2LeakagePerMBWatt)
	}
}

func TestCacheLeakageEnergyGatingSaves(t *testing.T) {
	p := DefaultParams()
	cfg := l2cfg(1024 * 1024)
	lines := uint64(cfg.NumLines())
	cycles := uint64(1_000_000)
	alwaysOn := CacheLeakageEnergy(p, cfg, lines*cycles, 0, 1, 0, 0)
	halfOff := CacheLeakageEnergy(p, cfg, lines*cycles/2, lines*cycles/2, 1, 0.05, 0)
	if halfOff >= alwaysOn {
		t.Fatal("gating half the lines must save energy even with area overhead")
	}
	allOff := CacheLeakageEnergy(p, cfg, 0, lines*cycles, 1, 0.05, 0)
	if allOff >= halfOff {
		t.Fatal("gating everything must save more")
	}
	if allOff <= 0 {
		t.Fatal("residual leakage of gated lines must remain positive")
	}
}

func TestCacheLeakageEnergyOverheadsIncrease(t *testing.T) {
	p := DefaultParams()
	cfg := l2cfg(1024 * 1024)
	on := uint64(cfg.NumLines()) * 1_000_000
	plain := CacheLeakageEnergy(p, cfg, on, 0, 1, 0, 0)
	withOverheads := CacheLeakageEnergy(p, cfg, on, 0, 1, 0.05, 0.01)
	if withOverheads <= plain {
		t.Fatal("area and counter overheads must increase leakage")
	}
	hot := CacheLeakageEnergy(p, cfg, on, 0, 1.5, 0, 0)
	if hot <= plain {
		t.Fatal("higher temperature must increase leakage")
	}
}

func TestCoreAndL1Energies(t *testing.T) {
	p := DefaultParams()
	if CoreDynamicEnergy(p, 1000) != 1000*p.CoreDynamicEPI {
		t.Fatal("core dynamic energy wrong")
	}
	if CoreLeakageEnergy(p, uint64(p.ClockHz), 1) != p.CoreLeakageWatt {
		t.Fatal("core leakage over one second should equal its wattage")
	}
	if L1DynamicEnergy(p, 10) != 10*p.L1AccessEnergy {
		t.Fatal("L1 dynamic energy wrong")
	}
	if L1LeakageEnergy(p, uint64(p.ClockHz), 2) != 2*p.L1LeakageWatt {
		t.Fatal("L1 leakage scaling wrong")
	}
	if L1AccessEnergy(p, cache.Config{}) != p.L1AccessEnergy {
		t.Fatal("L1 access energy accessor wrong")
	}
}

func TestBusAndCounterEnergy(t *testing.T) {
	p := DefaultParams()
	e := BusEnergy(p, 10, 640)
	want := 10*p.BusEnergyPerTxn + 640*p.BusEnergyPerByte
	if math.Abs(e-want) > 1e-18 {
		t.Fatalf("bus energy %v, want %v", e, want)
	}
	if DecayCounterDynamicEnergy(p, 100) != 100*p.DecayCounterDynamicPerTick {
		t.Fatal("counter energy wrong")
	}
}

func TestBreakdownTotalAndShare(t *testing.T) {
	b := Breakdown{CoreDynamic: 1, CoreLeakage: 2, L1Dynamic: 3, L1Leakage: 4,
		L2Dynamic: 5, L2Leakage: 10, Bus: 6, DecayOverhead: 9}
	if b.Total() != 40 {
		t.Fatalf("total %v, want 40", b.Total())
	}
	if share := b.L2Leakage / b.Total(); share != 0.25 {
		t.Fatalf("L2 share %v, want 0.25", share)
	}
	var zero Breakdown
	if zero.Total() != 0 {
		t.Fatal("total of empty breakdown should be 0")
	}
}

func TestBreakdownAddAndScale(t *testing.T) {
	a := Breakdown{CoreDynamic: 1, L2Leakage: 2}
	b := Breakdown{CoreDynamic: 3, Bus: 4}
	sum := a.Add(b)
	if sum.CoreDynamic != 4 || sum.L2Leakage != 2 || sum.Bus != 4 {
		t.Fatalf("add produced %+v", sum)
	}
	scaled := sum.Scale(0.5)
	if scaled.CoreDynamic != 2 || scaled.Bus != 2 {
		t.Fatalf("scale produced %+v", scaled)
	}
}

// Property: the L2 leakage share the model attributes to the cache grows
// monotonically with cache size, which is the structural property Figure 5a
// depends on.
func TestPropertyLeakageShareGrowsWithCacheSize(t *testing.T) {
	p := DefaultParams()
	otherEnergy := 0.1 // Joules of non-L2 energy, held constant
	prev := -1.0
	for _, mb := range []uint64{1, 2, 4, 8} {
		cfg := l2cfg(mb * 1024 * 1024)
		cycles := uint64(10_000_000)
		on := uint64(cfg.NumLines()) * cycles
		leak := CacheLeakageEnergy(p, cfg, on, 0, 1, 0, 0)
		share := leak / (leak + otherEnergy)
		if share <= prev {
			t.Fatalf("L2 leakage share not increasing at %d MB", mb)
		}
		prev = share
	}
}

// Property: leakage energy is always non-negative and monotone in the number
// of powered line-cycles.
func TestPropertyLeakageMonotoneInOnCycles(t *testing.T) {
	p := DefaultParams()
	cfg := l2cfg(1024 * 1024)
	f := func(a, b uint32) bool {
		lo, hi := uint64(a), uint64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		el := CacheLeakageEnergy(p, cfg, lo, 0, 1, 0.05, 0.01)
		eh := CacheLeakageEnergy(p, cfg, hi, 0, 1, 0.05, 0.01)
		return el >= 0 && eh >= el
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
