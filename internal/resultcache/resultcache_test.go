package resultcache

// Store tests: round-trips and appends across reopen, anchor invalidation
// (the acceptance rule — a record stamped under a different golden anchor
// is never served), last-record-wins duplicates, LRU eviction under
// MaxBytes, atomic compaction (including a simulated crash mid-compaction),
// torn and corrupt tails healed (and the heal synced) on open, foreign
// files refused untouched, the sync points of a clean close, options
// changes never reused, and ReuseFor/Wire feeding the worker pool
// byte-identical results — a rerun through Wire simulates only the jobs
// that never landed.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmpleak/internal/core"
	"cmpleak/internal/experiment"
	"cmpleak/internal/sim"
)

// noCompact disables automatic compaction so tests control it explicitly.
const noCompact = -1

func testKey(i int) experiment.Key {
	return experiment.Key{Benchmark: "FMM", SizeMB: i + 1, Technique: "baseline"}
}

func testRecord(digest string, i int) Record {
	return Record{
		Cell:          "cell",
		OptionsDigest: digest,
		Key:           testKey(i),
		Result:        core.Result{Label: "r", Cycles: sim.Cycle(1000 + i), IPC: 1.5},
	}
}

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustPut appends testRecord(digest, i) for every i in [from, to).
func mustPut(t *testing.T, s *Store, digest string, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := s.Put(testRecord(digest, i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "anchorA", CompactMinBytes: noCompact})
	mustPut(t, s, "d1", 0, 4)
	if res, ok := s.Get("d1", testKey(2)); !ok || res.Cycles != 1002 {
		t.Fatalf("Get before close = (%v, %v), want cycles 1002", res.Cycles, ok)
	}
	if _, ok := s.Get("other-digest", testKey(2)); ok {
		t.Fatal("a different options digest must miss")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, Options{Anchor: "anchorA", CompactMinBytes: noCompact})
	defer s.Close()
	if st := s.Stats(); st.Entries != 4 {
		t.Fatalf("reopened store holds %d entries, want 4", st.Entries)
	}
	for i := 0; i < 4; i++ {
		res, ok := s.Get("d1", testKey(i))
		if !ok || res.Cycles != sim.Cycle(1000+i) {
			t.Fatalf("key %d = (%v, %v), want cycles %d", i, res.Cycles, ok, 1000+i)
		}
	}
}

// TestStoreAppendsAfterReopen: a reopened store continues appending after
// the records already on disk, across more than one sync batch.
func TestStoreAppendsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Anchor: "a", CompactMinBytes: noCompact}
	const n = 2*syncEvery + 3
	for round := 0; round < 2; round++ {
		s := mustOpen(t, dir, opt)
		if st := s.Stats(); st.Entries != round*n {
			t.Fatalf("open %d: %d entries, want %d", round, st.Entries, round*n)
		}
		mustPut(t, s, "d1", round*n, (round+1)*n)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := mustOpen(t, dir, opt)
	defer s.Close()
	for i := 0; i < 2*n; i++ {
		if res, ok := s.Get("d1", testKey(i)); !ok || res.Cycles != sim.Cycle(1000+i) {
			t.Fatalf("key %d = (%v, %v), want cycles %d", i, res.Cycles, ok, 1000+i)
		}
	}
}

func TestStoreNeverServesForeignAnchor(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "anchorA", CompactMinBytes: noCompact})
	mustPut(t, s, "d1", 0, 1)
	// A record explicitly stamped with a foreign anchor is rejected at Put.
	foreign := testRecord("d1", 1)
	foreign.Anchor = "anchorB"
	if err := s.Put(foreign); err == nil {
		t.Fatal("Put accepted a record stamped with a foreign anchor")
	}
	s.Close()

	// Reopening the directory under a different anchor serves nothing: the
	// on-disk record's anchor no longer matches.
	s = mustOpen(t, dir, Options{Anchor: "anchorB", CompactMinBytes: noCompact})
	if _, ok := s.Get("d1", testKey(0)); ok {
		t.Fatal("record recorded under anchorA was served under anchorB")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("foreign-anchor store indexes %d entries, want 0", st.Entries)
	}
	// Compaction drops the dead foreign record from disk for good.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = mustOpen(t, dir, Options{Anchor: "anchorA", CompactMinBytes: noCompact})
	defer s.Close()
	if _, ok := s.Get("d1", testKey(0)); ok {
		t.Fatal("compaction under anchorB must discard anchorA records; reopening under anchorA found one")
	}
}

func TestStoreLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	rec := testRecord("d1", 0)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	rec.Result.Cycles = 9999
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if res, _ := s.Get("d1", testKey(0)); res.Cycles != 9999 {
		t.Fatalf("duplicate Put: got cycles %d, want the later 9999", res.Cycles)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate key indexed %d entries, want 1", st.Entries)
	}
	s.Close()
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if res, _ := s.Get("d1", testKey(0)); res.Cycles != 9999 {
		t.Fatalf("reload of duplicate records: got cycles %d, want the later 9999", res.Cycles)
	}
}

func TestStoreEvictsLRUUnderMaxBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	// Measure one record's framed footprint, then bound the store to ~3.
	mustPut(t, s, "d0", 0, 1)
	recSize := s.Stats().LiveBytes
	s.Close()
	os.RemoveAll(dir)

	s = mustOpen(t, dir, Options{Anchor: "a", MaxBytes: 3 * recSize, CompactMinBytes: noCompact})
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Put(testRecord("d1", i)); err != nil {
			t.Fatal(err)
		}
		// Touch key 0 so it stays hot and survives eviction.
		if i >= 1 {
			s.Get("d1", testKey(0))
		}
	}
	st := s.Stats()
	if st.Entries != 3 || st.Evictions != 2 {
		t.Fatalf("entries %d, evictions %d; want 3 live entries after 2 evictions", st.Entries, st.Evictions)
	}
	if _, ok := s.Get("d1", testKey(0)); !ok {
		t.Fatal("most-recently-used record was evicted")
	}
	if _, ok := s.Get("d1", testKey(1)); ok {
		t.Fatal("least-recently-used record survived eviction")
	}
}

func TestStoreCompactionReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	rec := testRecord("d1", 0)
	for i := 0; i < 10; i++ {
		rec.Result.Cycles = sim.Cycle(i)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(t, s, "d1", 1, 2)
	before := s.Stats()
	if before.TotalBytes <= before.LiveBytes {
		t.Fatalf("expected dead bytes before compaction: total %d, live %d", before.TotalBytes, before.LiveBytes)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Entries != 2 || after.Segments != 1 {
		t.Fatalf("after compaction: %d entries in %d segments, want 2 in 1", after.Entries, after.Segments)
	}
	if after.TotalBytes >= before.TotalBytes {
		t.Fatalf("compaction did not shrink the store: %d -> %d bytes", before.TotalBytes, after.TotalBytes)
	}
	// Appends continue on the compacted segment and everything survives a
	// reopen.
	mustPut(t, s, "d1", 2, 3)
	s.Close()
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if res, ok := s.Get("d1", testKey(0)); !ok || res.Cycles != 9 {
		t.Fatalf("compacted record = (%v, %v), want the last duplicate (cycles 9)", res.Cycles, ok)
	}
	for i := 1; i <= 2; i++ {
		if _, ok := s.Get("d1", testKey(i)); !ok {
			t.Fatalf("record %d lost across compaction + reopen", i)
		}
	}
}

func TestStoreAutoCompacts(t *testing.T) {
	dir := t.TempDir()
	// CompactMinBytes 1: compact as soon as dead bytes outweigh live ones.
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: 1})
	rec := testRecord("d1", 0)
	for i := 0; i < 8; i++ {
		rec.Result.Cycles = sim.Cycle(i)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("8 duplicate puts never auto-compacted: %+v", st)
	}
	if res, ok := s.Get("d1", testKey(0)); !ok || res.Cycles != 7 {
		t.Fatalf("after auto-compaction: (%v, %v), want cycles 7", res.Cycles, ok)
	}
}

func TestStoreIgnoresInterruptedCompactionTmp(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	mustPut(t, s, "d1", 0, 1)
	s.Close()
	// Simulate a crash mid-compaction: a half-written .tmp next to the
	// segments.
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002.tmp"), []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if _, ok := s.Get("d1", testKey(0)); !ok {
		t.Fatal("record lost to a leftover compaction tmp")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("leftover tmp files not cleaned: %v", tmps)
	}
}

// segImage returns the bytes of segment n of dir.
func segImage(t *testing.T, dir string, n int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segName(n)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// forEachTornCut writes a 3-record segment cut at every byte offset past
// its magic into a fresh directory, and calls check with the number of
// whole records before the cut and the byte length of that valid prefix.
func forEachTornCut(t *testing.T, check func(dir string, cut, whole, valid int)) {
	t.Helper()
	src := t.TempDir()
	s := mustOpen(t, src, Options{Anchor: "a", CompactMinBytes: noCompact})
	mustPut(t, s, "d1", 0, 3)
	s.Close()
	img := segImage(t, src, 1)
	ends := []int{}
	end := len(segMagic)
	if _, err := decodeSegment(img, func(_ Record, size int64) {
		end += int(size)
		ends = append(ends, end)
	}); err != nil {
		t.Fatal(err)
	}

	for cut := len(segMagic); cut <= len(img); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole, valid := 0, len(segMagic)
		for whole < len(ends) && ends[whole] <= cut {
			valid = ends[whole]
			whole++
		}
		check(dir, cut, whole, valid)
	}
}

// TestStoreTruncatesTornTail cuts a valid segment at every byte offset:
// Open must always index exactly the whole records before the cut, never
// fail, and truncate the file back to them, so appending after the heal
// leaves a clean frame sequence.
func TestStoreTruncatesTornTail(t *testing.T) {
	forEachTornCut(t, func(dir string, cut, whole, valid int) {
		s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
		if st := s.Stats(); st.Entries != whole {
			t.Fatalf("cut at %d: %d entries, want %d", cut, st.Entries, whole)
		}
		if got := len(segImage(t, dir, 1)); got != valid {
			t.Fatalf("cut at %d: heal left %d bytes, want the %d-byte valid prefix", cut, got, valid)
		}
		mustPut(t, s, "d1", 3, 4)
		s.Close()
		s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
		if st := s.Stats(); st.Entries != whole+1 {
			t.Fatalf("cut at %d: after heal + append: %d entries, want %d", cut, st.Entries, whole+1)
		}
		s.Close()
	})
}

// TestStoreTornTailServesWholePrefix cuts a valid segment at every byte
// offset: every whole record before the cut is served exactly as written,
// and none after it is served at all.
func TestStoreTornTailServesWholePrefix(t *testing.T) {
	forEachTornCut(t, func(dir string, cut, whole, _ int) {
		s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
		defer s.Close()
		for i := 0; i < 3; i++ {
			res, ok := s.Get("d1", testKey(i))
			if ok != (i < whole) || ok && res.Cycles != sim.Cycle(1000+i) {
				t.Fatalf("cut at %d: record %d = (%v, %v), want served %v with cycles %d",
					cut, i, res.Cycles, ok, i < whole, 1000+i)
			}
		}
	})
}

// TestStoreHealSyncsTruncatedTail pins the durability of the torn-tail
// heal: Open must sync the truncated segment before appends resume, or a
// crash before the next batched sync could resurrect the torn bytes in
// front of new records.
func TestStoreHealSyncsTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	mustPut(t, s, "d1", 0, 2)
	s.Close()
	img := segImage(t, dir, 1)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), img[:len(img)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	var syncs int
	orig := fileSync
	fileSync = func(f *os.File) error { syncs++; return orig(f) }
	defer func() { fileSync = orig }()
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if syncs != 1 {
		t.Fatalf("opening a store with a torn tail synced %d times; want 1 for the truncation", syncs)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("torn tail: %d entries, want 1", st.Entries)
	}
}

// TestStoreCorruptTailTruncates flips one byte in the last record: Open
// keeps every earlier record and drops the corrupt one.
func TestStoreCorruptTailTruncates(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	mustPut(t, s, "d1", 0, 3)
	s.Close()
	img := segImage(t, dir, 1)
	img[len(img)-2] ^= 0x40 // inside the last record's payload
	if err := os.WriteFile(filepath.Join(dir, segName(1)), img, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if st := s.Stats(); st.Entries != 2 {
		t.Fatalf("reloaded %d records past a corrupt tail, want 2", st.Entries)
	}
	if _, ok := s.Get("d1", testKey(2)); ok {
		t.Fatal("the corrupt record was served")
	}
}

// TestStoreCloseSyncsTail pins the durability contract of a clean close:
// with the batched fsync-every-syncEvery cadence, up to syncEvery-1
// records sit in the page cache, and Close must fsync that tail
// unconditionally.  The fileSync seam counts the actual sync points.
func TestStoreCloseSyncsTail(t *testing.T) {
	var syncs int
	orig := fileSync
	fileSync = func(f *os.File) error { syncs++; return orig(f) }
	defer func() { fileSync = orig }()

	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	// Creation syncs the fresh magic and the directory entry.
	if syncs != 2 {
		t.Fatalf("creating the store synced %d times; want the segment and its directory entry", syncs)
	}
	n := syncEvery - 1 // strictly inside one batch window
	mustPut(t, s, "d1", 0, n)
	if syncs != 2 {
		t.Fatalf("%d puts inside the batch window triggered %d extra sync(s); want 0", n, syncs-2)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs != 3 {
		t.Fatalf("Close performed %d sync(s); want exactly 1 flushing the %d pending record(s)", syncs-2, n)
	}
	fileSync = orig
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if st := s.Stats(); st.Entries != n {
		t.Fatalf("reload found %d records, want %d", st.Entries, n)
	}
}

// assertOpenRejects writes files into a fresh directory and checks that
// Open fails with a magic error and leaves every file byte-for-byte
// untouched.
func assertOpenRejects(t *testing.T, files map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, Options{Anchor: "a"}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("Open on a foreign segment file: err = %v, want a magic error", err)
	}
	for name, want := range files {
		if data, _ := os.ReadFile(filepath.Join(dir, name)); string(data) != string(want) {
			t.Fatalf("Open modified %s, which it rejected: %q", name, data)
		}
	}
}

func TestStoreRejectsForeignFile(t *testing.T) {
	assertOpenRejects(t, map[string][]byte{segName(1): []byte("NOTACAS!whatever")})
}

// TestStoreRejectsForeignActiveSegment puts a foreign file where the
// active segment belongs, behind a valid one: Open must refuse it rather
// than heal it as a torn tail.
func TestStoreRejectsForeignActiveSegment(t *testing.T) {
	src := t.TempDir()
	s := mustOpen(t, src, Options{Anchor: "a", CompactMinBytes: noCompact})
	mustPut(t, s, "d1", 0, 2)
	s.Close()
	assertOpenRejects(t, map[string][]byte{
		segName(1): segImage(t, src, 1),
		segName(2): []byte("some other file format entirely"),
	})
}

// TestReuseForFeedsPoolByteIdentical runs a tiny sweep cold (populating the
// store through Wire), then warm through ReuseFor, and
// asserts (a) zero jobs execute warm and (b) the merged sweep digests are
// identical.
func TestReuseForFeedsPoolByteIdentical(t *testing.T) {
	opts := experiment.DefaultOptions(0.005)
	opts.Benchmarks = []string{"FMM"}
	opts.CacheSizesMB = []int{1}
	opts.Seed = 7
	named := []experiment.NamedOptions{{Name: "cell", Options: opts}}

	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactMinBytes: noCompact}) // default anchor
	cold, err := experiment.RunParallelAll(named, s.Wire(experiment.Parallelism{Workers: 2}, named,
		func(err error) { t.Errorf("Put: %v", err) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, Options{CompactMinBytes: noCompact})
	defer s.Close()
	ran := 0
	warm, err := experiment.RunParallelAll(named, experiment.Parallelism{
		Workers:  2,
		Reuse:    s.ReuseFor(named),
		Progress: func(experiment.JobEvent) { ran++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("warm run simulated %d jobs, want 0", ran)
	}
	if got, want := warm[0].Digest(), cold[0].Digest(); got != want {
		t.Fatalf("warm sweep digest %s != cold %s", got, want)
	}
	if st := s.Stats(); st.Hits != uint64(len(opts.Jobs())) {
		t.Fatalf("warm run hit %d times, want %d", st.Hits, len(opts.Jobs()))
	}
}

// TestWireResumesInterruptedSweep "interrupts" a sweep by storing only a
// prefix of its jobs, then reruns it through Wire: the pool must simulate
// exactly the missing jobs, write each through before its own Progress
// sees it, and digest identically to an uninterrupted run.
func TestWireResumesInterruptedSweep(t *testing.T) {
	opts := experiment.DefaultOptions(0.005)
	opts.Benchmarks = []string{"FMM"}
	opts.CacheSizesMB = []int{1, 2}
	opts.Seed = 7
	named := []experiment.NamedOptions{{Name: "cell", Options: opts}}
	full, err := experiment.RunParallelAll(named, experiment.Parallelism{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, t.TempDir(), Options{CompactMinBytes: noCompact})
	defer s.Close()
	jobs := opts.Jobs()
	half := len(jobs) / 2
	for _, k := range jobs[:half] {
		res, ok := full[0].Result(k.Benchmark, k.SizeMB, k.Technique)
		if !ok {
			t.Fatalf("full sweep is missing %s", k)
		}
		if err := s.Put(Record{Cell: "cell", OptionsDigest: opts.Digest(), Key: k, Result: res}); err != nil {
			t.Fatal(err)
		}
	}

	ran := map[experiment.Key]bool{}
	p := s.Wire(experiment.Parallelism{
		Workers: 2,
		Progress: func(ev experiment.JobEvent) {
			ran[ev.Key] = true
			if puts := s.Stats().Puts; puts != uint64(half+len(ran)) {
				t.Errorf("%s reached Progress after %d puts, want %d: Put must run first", ev.Key, puts, half+len(ran))
			}
		},
	}, named, func(err error) { t.Errorf("Put: %v", err) })
	resumed, err := experiment.RunParallelAll(named, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != len(jobs)-half {
		t.Fatalf("resumed run simulated %d jobs, want only the %d missing ones", len(ran), len(jobs)-half)
	}
	for _, k := range jobs[half:] {
		if !ran[k] {
			t.Fatalf("missing job %s was not simulated", k)
		}
	}
	if got, want := resumed[0].Digest(), full[0].Digest(); got != want {
		t.Fatalf("resumed digest diverged:\n  got:  %s\n  want: %s", got, want)
	}
	if st := s.Stats(); st.Hits != uint64(half) || st.Entries != len(jobs) {
		t.Fatalf("store after resume: %d hits, %d entries; want %d hits, %d entries", st.Hits, st.Entries, half, len(jobs))
	}
}

// assertNoReuseAcross stores a result for every job of a sweep, then
// checks that the unchanged sweep reuses all of them and the sweep with
// mutate applied reuses none: the options digest is part of every key.
func assertNoReuseAcross(t *testing.T, mutate func(*experiment.Options)) {
	t.Helper()
	opts := experiment.DefaultOptions(0.005)
	opts.Benchmarks = []string{"FMM"}
	opts.CacheSizesMB = []int{1}
	changed := opts
	mutate(&changed)
	s := mustOpen(t, t.TempDir(), Options{CompactMinBytes: noCompact})
	defer s.Close()
	for _, k := range opts.Jobs() {
		if err := s.Put(Record{Cell: "cell", OptionsDigest: opts.Digest(), Key: k, Result: core.Result{Label: "stored"}}); err != nil {
			t.Fatal(err)
		}
	}
	same := s.ReuseFor([]experiment.NamedOptions{{Name: "cell", Options: opts}})
	other := s.ReuseFor([]experiment.NamedOptions{{Name: "cell", Options: changed}})
	for _, k := range opts.Jobs() {
		if _, ok := same("cell", k); !ok {
			t.Fatalf("%s not reused by the unchanged sweep", k)
		}
		if _, ok := other("cell", k); ok {
			t.Fatalf("%s reused across an options change", k)
		}
	}
}

// TestReuseForIgnoresForeignDigest: records written under other options
// (here another seed) contribute nothing to a rerun.
func TestReuseForIgnoresForeignDigest(t *testing.T) {
	assertNoReuseAcross(t, func(o *experiment.Options) { o.Seed++ })
}

// TestReuseForMissesAfterBaseConfigChange: a rerun whose base system
// changed reuses nothing.
func TestReuseForMissesAfterBaseConfigChange(t *testing.T) {
	assertNoReuseAcross(t, func(o *experiment.Options) { o.Base = o.Base.WithCores(2) })
}
