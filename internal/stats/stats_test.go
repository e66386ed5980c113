package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter value %d", c.Value())
	}
	c.Inc()
	c.Inc()
	c.Add(5)
	if c.Value() != 7 {
		t.Fatalf("counter value %d, want 7", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter after reset %d, want 0", c.Value())
	}
}

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	for _, v := range []float64{2, 4, 6, 8} {
		a.Observe(v)
	}
	if a.Count() != 4 {
		t.Fatalf("count %d, want 4", a.Count())
	}
	if a.Mean() != 5 {
		t.Fatalf("mean %v, want 5", a.Mean())
	}
	if a.Min() != 2 || a.Max() != 8 {
		t.Fatalf("min/max %v/%v, want 2/8", a.Min(), a.Max())
	}
	if a.Sum() != 20 {
		t.Fatalf("sum %v, want 20", a.Sum())
	}
	if math.Abs(a.Variance()-5) > 1e-9 {
		t.Fatalf("variance %v, want 5", a.Variance())
	}
	if math.Abs(a.StdDev()-math.Sqrt(5)) > 1e-9 {
		t.Fatalf("stddev %v", a.StdDev())
	}
}

func TestAccumulatorReset(t *testing.T) {
	var a Accumulator
	a.Observe(3)
	a.Reset()
	if a.Count() != 0 || a.Sum() != 0 {
		t.Fatal("reset did not clear accumulator")
	}
}

func TestAccumulatorNegativeValues(t *testing.T) {
	var a Accumulator
	a.Observe(-3)
	a.Observe(3)
	if a.Min() != -3 || a.Max() != 3 {
		t.Fatalf("min/max %v/%v", a.Min(), a.Max())
	}
	if a.Mean() != 0 {
		t.Fatalf("mean %v, want 0", a.Mean())
	}
}

func TestCycleAccBasics(t *testing.T) {
	var a CycleAcc
	if a.Mean() != 0 || a.Min() != 0 || a.Max() != 0 || a.Sum() != 0 {
		t.Fatal("empty CycleAcc should report zeros")
	}
	for _, v := range []uint64{2, 4, 6, 8} {
		a.Observe(v)
	}
	if a.Count() != 4 {
		t.Fatalf("count %d, want 4", a.Count())
	}
	if a.Sum() != 20 {
		t.Fatalf("sum %d, want 20", a.Sum())
	}
	if a.Mean() != 5 {
		t.Fatalf("mean %v, want 5", a.Mean())
	}
	if a.Min() != 2 || a.Max() != 8 {
		t.Fatalf("min/max %d/%d, want 2/8", a.Min(), a.Max())
	}
	a.Reset()
	if a.Count() != 0 || a.Sum() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatal("reset did not clear CycleAcc")
	}
}

// CycleAcc's report-time moments must be bit-identical to what the float64
// Accumulator computes for the same integer samples — that is the contract
// that lets the hot-path collectors switch representation without moving
// the golden digest.
func TestCycleAccMatchesAccumulatorOnIntegers(t *testing.T) {
	f := func(raw []uint32) bool {
		var ca CycleAcc
		var fa Accumulator
		for _, v := range raw {
			ca.Observe(uint64(v))
			fa.Observe(float64(v))
		}
		if ca.Count() != fa.Count() {
			return false
		}
		if float64(ca.Sum()) != fa.Sum() {
			return false
		}
		if ca.Mean() != fa.Mean() {
			return false
		}
		if len(raw) == 0 {
			return true
		}
		return float64(ca.Min()) == fa.Min() && float64(ca.Max()) == fa.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioHelpers(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator should be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatal("Ratio(3,4) wrong")
	}
	if RatioU(1, 0) != 0 {
		t.Fatal("RatioU with zero denominator should be 0")
	}
	if RatioU(1, 4) != 0.25 {
		t.Fatal("RatioU(1,4) wrong")
	}
}

// Property: the accumulator mean always lies between min and max.  Samples
// are folded into a bounded range so the running sum cannot overflow float64.
func TestPropertyMeanWithinBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var a Accumulator
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			a.Observe(math.Mod(v, 1e9))
		}
		if a.Count() == 0 {
			return true
		}
		return a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
