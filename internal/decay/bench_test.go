package decay

// Benchmark for one global decay tick over a fully resident 256 KB bank
// (4096 lines, the per-core share of the paper's 1 MB configuration).
// Run with -benchmem: 0 allocs/op — the scan walks the flat array in place
// and the tick rides one recurring engine node.

import "testing"

func BenchmarkDecayTick(b *testing.B) {
	tick := startResidentTicks(b)
	// Warm until every armed line has saturated, so the fixture's request
	// log reaches its steady-state capacity and stops growing.
	for i := 0; i < counterLevels+1; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}
