package trace_test

// Record → replay equivalence at adversarial geometries: batch sizes that
// are 1, prime, or straddle the 256-entry internal buffers (255, 257),
// consumed through the Record tee and replayed across chunk boundaries that
// never align with the batches (ChunkEntries 1, 3, 255, 257).  PR 4's
// replay test proved the aligned cases; this closes the odd-size gap — any
// carry bug in the tee, the writer's chunk splitting, or the reader's
// cross-chunk address-chain reset shows up as a diverging entry here.

import (
	"bytes"
	"testing"

	"cmpleak/internal/mem"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// sliceStream replays a fixed slice of entries; it implements
// workload.BatchStream, so the Record tee reads it batch by batch.
type sliceStream struct{ entries []workload.Entry }

func (s *sliceStream) Next() (workload.Entry, bool) {
	if len(s.entries) == 0 {
		return workload.Entry{}, false
	}
	e := s.entries[0]
	s.entries = s.entries[1:]
	return e, true
}

func (s *sliceStream) NextBatch(buf []workload.Entry) int {
	n := copy(buf, s.entries)
	s.entries = s.entries[n:]
	return n
}

// syntheticEntries builds a deterministic pseudo-random entry sequence with
// full op-kind and address-delta variety (forward and backward jumps, runs
// of pure compute, repeated blocks).
func syntheticEntries(n int, seed uint64) []workload.Entry {
	out := make([]workload.Entry, n)
	x := seed | 1
	next := func() uint64 { // xorshift64*
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 0x2545F4914F6CDD1D
	}
	addr := mem.Addr(1 << 20)
	for i := range out {
		r := next()
		e := workload.Entry{ComputeInstrs: int(r % 37)}
		switch r % 5 {
		case 0: // pure compute
		case 1:
			e.Op = workload.Load
			addr += mem.Addr(next() % 4096)
			e.Addr = addr
		case 2:
			e.Op = workload.Store
			addr -= mem.Addr(next() % 4096)
			e.Addr = addr
		case 3: // far jump
			e.Op = workload.Load
			addr = mem.Addr(next())
			e.Addr = addr
		default: // same-block reuse
			e.Op = workload.Store
			e.Addr = addr
		}
		out[i] = e
	}
	return out
}

func TestRecordReplayAdversarialBatchSizes(t *testing.T) {
	const n = 1500 // crosses every chunk size below several times
	want := syntheticEntries(n, 42)
	batchSizes := []int{1, 3, 255, 257}
	chunkSizes := []int{1, 3, 255, 257}

	for _, chunk := range chunkSizes {
		for _, recordBatch := range batchSizes {
			var buf bytes.Buffer
			w, err := trace.NewWriter(&buf,
				trace.Header{Cores: 1, LineBytes: 64, Benchmark: "synthetic"},
				trace.WriterOptions{ChunkEntries: chunk})
			if err != nil {
				t.Fatal(err)
			}
			// Drain the source through the Record tee at the adversarial
			// batch size: the tee must deliver every entry unchanged while
			// appending exactly the same sequence to the writer.
			rec := trace.Record(&sliceStream{entries: want}, w, 0)
			got := drainBatched(rec, recordBatch)
			if rec.Err() != nil {
				t.Fatalf("chunk %d batch %d: record error: %v", chunk, recordBatch, rec.Err())
			}
			if len(got) != n {
				t.Fatalf("chunk %d batch %d: tee delivered %d entries, want %d", chunk, recordBatch, len(got), n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("chunk %d batch %d: tee entry %d is %+v, want %+v", chunk, recordBatch, i, got[i], want[i])
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			f, err := trace.New(buf.Bytes())
			if err != nil {
				t.Fatalf("chunk %d batch %d: %v", chunk, recordBatch, err)
			}
			if err := f.Verify(); err != nil {
				t.Fatalf("chunk %d batch %d: %v", chunk, recordBatch, err)
			}
			// Replay at every adversarial batch size, including ones that
			// differ from the recording batch, so read batches and chunk
			// boundaries interleave in every phase relation.
			for _, replayBatch := range batchSizes {
				r := f.Stream(0)
				replayed := drainBatched(r, replayBatch)
				if r.Err() != nil {
					t.Fatalf("chunk %d record %d replay %d: reader error: %v", chunk, recordBatch, replayBatch, r.Err())
				}
				if len(replayed) != n {
					t.Fatalf("chunk %d record %d replay %d: %d entries, want %d",
						chunk, recordBatch, replayBatch, len(replayed), n)
				}
				for i := range replayed {
					if replayed[i] != want[i] {
						t.Fatalf("chunk %d record %d replay %d: entry %d is %+v, want %+v",
							chunk, recordBatch, replayBatch, i, replayed[i], want[i])
					}
				}
			}
		}
	}
}

// TestRecordReplayAcrossChunkBoundaryTail pins the two hand-picked
// geometries most likely to hide a carry bug: a batch that ends exactly one
// entry before a chunk boundary, and one that ends exactly one entry after
// it (the address chain restarts at every chunk; an off-by-one either
// drops the boundary entry or decodes it against the wrong previous
// address).
func TestRecordReplayAcrossChunkBoundaryTail(t *testing.T) {
	const chunk = 256
	want := syntheticEntries(3*chunk+1, 7) // final chunk holds exactly 1 entry
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf,
		trace.Header{Cores: 1, LineBytes: 64, Benchmark: "synthetic"},
		trace.WriterOptions{ChunkEntries: chunk})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{chunk - 1, chunk + 1} {
		buf.Reset()
		w, err = trace.NewWriter(&buf,
			trace.Header{Cores: 1, LineBytes: 64, Benchmark: "synthetic"},
			trace.WriterOptions{ChunkEntries: chunk})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.Record(&sliceStream{entries: want}, w, 0)
		if got := len(drainBatched(rec, batch)); got != len(want) || rec.Err() != nil {
			t.Fatalf("batch %d: tee delivered %d entries (err %v), want %d", batch, got, rec.Err(), len(want))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := trace.New(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		r := f.Stream(0)
		got := drainBatched(r, batch)
		if r.Err() != nil || len(got) != len(want) {
			t.Fatalf("batch %d: replayed %d entries (err %v), want %d", batch, len(got), r.Err(), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("batch %d: entry %d is %+v, want %+v", batch, i, got[i], want[i])
			}
		}
	}
}
