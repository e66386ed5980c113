package workload

import (
	"testing"

	"cmpleak/internal/mem"
)

// drainBatched consumes a BatchStream with the given batch size.
func drainBatched(b BatchStream, batch int) []Entry {
	buf := make([]Entry, batch)
	var out []Entry
	for {
		n := b.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// Every built-in generator must yield the same entry sequence through the
// per-entry Stream view, native batching at any batch size, and the
// AsBatchStream shim — the suspension points of the lazy phase generator
// must be invisible.
func TestBatchStreamMatchesPerEntryStream(t *testing.T) {
	for _, name := range PaperBenchmarks() {
		t.Run(name, func(t *testing.T) {
			mk := func() Stream {
				g, err := ByName(name, 0.02)
				if err != nil {
					t.Fatal(err)
				}
				return g.Streams(2, 11)[1]
			}
			want := Drain(mk())
			if len(want) == 0 {
				t.Fatal("stream produced no entries")
			}
			for _, batch := range []int{1, 7, 64, 1024} {
				s := mk()
				bs, ok := s.(BatchStream)
				if !ok {
					t.Fatalf("generator stream does not batch natively")
				}
				got := drainBatched(bs, batch)
				if len(got) != len(want) {
					t.Fatalf("batch=%d produced %d entries, want %d", batch, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("batch=%d diverged at entry %d: %+v vs %+v", batch, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// The AsBatchStream shim must adapt a plain Stream without reordering or
// dropping entries, and pass a native BatchStream through untouched.
func TestAsBatchStreamShim(t *testing.T) {
	entries := make([]Entry, 100)
	for i := range entries {
		entries[i] = Entry{ComputeInstrs: i, Op: Load, Addr: mem.Addr(0x1000 + i*64)}
	}
	native := &sliceStream{entries: entries}
	if AsBatchStream(native) != BatchStream(native) {
		t.Fatal("native BatchStream was wrapped instead of passed through")
	}
	// onlyNext hides the batch method, forcing the shim path.
	shimmed := AsBatchStream(onlyNext{&sliceStream{entries: entries}})
	got := drainBatched(shimmed, 17)
	if len(got) != len(entries) {
		t.Fatalf("shim produced %d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("shim diverged at entry %d", i)
		}
	}
}

// onlyNext restricts a Stream to its Next method.
type onlyNext struct{ s Stream }

func (o onlyNext) Next() (Entry, bool) { return o.s.Next() }

// TestNextBatchAllocationFree guards the stream-ingest hot path (`make
// test-allocs`): refilling a batch buffer from a native generator stream
// must not allocate.
func TestNextBatchAllocationFree(t *testing.T) {
	g, err := ByName("WATER-NS", 1)
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := g.Streams(1, 3)[0].(BatchStream)
	if !ok {
		t.Fatal("generator stream does not batch natively")
	}
	buf := make([]Entry, 256)
	if allocs := testing.AllocsPerRun(200, func() {
		if bs.NextBatch(buf) == 0 {
			t.Fatal("stream exhausted during the allocation guard")
		}
	}); allocs != 0 {
		t.Errorf("NextBatch allocates %.1f objects/op, want 0", allocs)
	}
}
