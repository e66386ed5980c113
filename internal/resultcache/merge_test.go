package resultcache

// Merge tests: shard stores of a sharded sweep, opened through a glob,
// must rebuild a sweep whose digest and rendered report equal the
// unsharded run's without simulating or appending anything; a missing or
// doubly held job, a glob matching nothing and a path that is not a store
// must each fail with an error that names the culprit.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmpleak/internal/decay"
	"cmpleak/internal/experiment"
)

// mergeOptions is a small 18-job sweep: three benchmarks, two sizes, the
// baseline plus two techniques.
func mergeOptions() experiment.Options {
	opts := experiment.DefaultOptions(0.005)
	opts.Benchmarks = []string{"WATER-NS", "mpeg2dec", "FMM"}
	opts.CacheSizesMB = []int{1, 2}
	opts.Techniques = []decay.Spec{
		{Kind: decay.KindProtocol},
		{Kind: decay.KindDecay, DecayCycles: 8 * 1024},
	}
	opts.Seed = 7
	return opts
}

// runShardStores runs opts in n shards, shard i into the store root/shard-i,
// and returns root.
func runShardStores(t *testing.T, opts experiment.Options, n int) string {
	t.Helper()
	root := t.TempDir()
	for i := 0; i < n; i++ {
		part := opts
		part.ShardIndex, part.ShardCount = i, n
		named := []experiment.NamedOptions{{Options: part}}
		s := mustOpen(t, filepath.Join(root, fmt.Sprintf("shard-%d", i)), Options{})
		p := s.Wire(experiment.Parallelism{Workers: 2}, named, func(err error) { t.Errorf("Put: %v", err) })
		if _, err := experiment.RunParallelAll(named, p); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// mergeSweep opens the stores matching glob, merges them for opts and runs
// the sweep from the union, failing the test if any job simulates.  It
// returns the sweep and the opened stores (closed at test cleanup).
func mergeSweep(t *testing.T, glob string, opts experiment.Options) (*experiment.Sweep, []*Store) {
	t.Helper()
	stores, err := OpenGlob(glob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	named := []experiment.NamedOptions{{Options: opts}}
	reuse, err := Merge(stores, named)
	if err != nil {
		t.Fatal(err)
	}
	sweeps, err := experiment.RunParallelAll(named, experiment.Parallelism{
		Workers:  2,
		Reuse:    reuse,
		Progress: func(ev experiment.JobEvent) { t.Errorf("merge simulated %s", ev.Key) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return sweeps[0], stores
}

func report(t *testing.T, s *experiment.Sweep) string {
	t.Helper()
	var buf bytes.Buffer
	if err := experiment.WriteReport(&buf, s, "", false); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMergeReproducesFullSweep: a 3-way sharded sweep merged from its
// stores digests and renders exactly like the unsharded run, and the merge
// appends nothing to any store.
func TestMergeReproducesFullSweep(t *testing.T) {
	opts := mergeOptions()
	full, err := experiment.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	merged, stores := mergeSweep(t, filepath.Join(runShardStores(t, opts, 3), "shard-{0,1*,2}"), opts)
	if len(stores) != 3 {
		t.Fatalf("glob opened %d stores, want 3", len(stores))
	}
	if got, want := merged.Digest(), full.Digest(); got != want {
		t.Fatalf("merged digest %s != unsharded %s", got, want)
	}
	if got, want := report(t, merged), report(t, full); got != want {
		t.Fatalf("merged report differs from the unsharded sweep:\n--- want\n%s\n--- got\n%s", want, got)
	}
	for _, s := range stores {
		if puts := s.Stats().Puts; puts != 0 {
			t.Fatalf("merge appended %d record(s) to %s", puts, s.dir)
		}
	}
}

// TestMergeSingleUnshardedStore: the store of an unsharded run merges on
// its own.
func TestMergeSingleUnshardedStore(t *testing.T) {
	opts := mergeOptions()
	merged, _ := mergeSweep(t, filepath.Join(runShardStores(t, opts, 1), "shard-*"), opts)
	if got, want := len(merged.Keys()), len(opts.Jobs()); got != want {
		t.Fatalf("single-store merge holds %d results, want %d", got, want)
	}
}

// putJobs writes a store in dir holding an (empty) result for each key under
// digest.
func putJobs(t *testing.T, dir, digest string, keys []experiment.Key) {
	t.Helper()
	s := mustOpen(t, dir, Options{})
	for _, k := range keys {
		if err := s.Put(Record{OptionsDigest: digest, Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// mergeGlobs opens the stores matching each glob and merges them for named.
func mergeGlobs(named []experiment.NamedOptions, globs ...string) error {
	var stores []*Store
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	for _, glob := range globs {
		opened, err := OpenGlob(glob, Options{})
		if err != nil {
			return err
		}
		stores = append(stores, opened...)
	}
	_, err := Merge(stores, named)
	return err
}

// wantErr fails the test unless err is non-nil and names substr.
func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("merge accepted the store set; want an error naming %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not name %q", err, substr)
	}
}

// shardOf returns opts restricted to shard i of n.
func shardOf(opts experiment.Options, i, n int) experiment.Options {
	opts.ShardIndex, opts.ShardCount = i, n
	return opts
}

// TestMergeRejectsBadStoreSets: every way a set of stores can fail to hold
// one sweep, each failing before anything runs and naming the culprit job.
func TestMergeRejectsBadStoreSets(t *testing.T) {
	opts := mergeOptions()
	root := runShardStores(t, opts, 3)
	// A cell's name plays no part in the lookup, only in the errors.
	named := []experiment.NamedOptions{{Name: "paper", Options: opts}}
	shard0, shard1 := shardOf(opts, 0, 3).Jobs(), shardOf(opts, 1, 3).Jobs()
	shard0Dir, shard2Dir := filepath.Join(root, "shard-0"), filepath.Join(root, "shard-2")

	t.Run("missing-shard", func(t *testing.T) {
		err := mergeGlobs(named, filepath.Join(root, "shard-{0,2}"))
		wantErr(t, err, `cell "paper" job `+shard1[0].String())
	})
	t.Run("duplicate-job", func(t *testing.T) {
		// A fourth store holding one job shard 1 already holds.
		dup := filepath.Join(t.TempDir(), "shard-dup")
		putJobs(t, dup, opts.Digest(), shard1[:1])
		err := mergeGlobs(named, filepath.Join(root, "shard-*"), dup)
		wantErr(t, err, shard1[0].String())
		wantErr(t, err, dup)
	})
	t.Run("none", func(t *testing.T) {
		wantErr(t, mergeGlobs(named), "in none of the 0 store(s)")
	})
	t.Run("coordinate-mismatch", func(t *testing.T) {
		// Shard 1 of a sweep with another seed, or another benchmark list,
		// records under another options digest: this sweep's shard-1 jobs
		// are in no store.
		seed := mergeOptions()
		seed.Seed++
		benchmarks := mergeOptions()
		benchmarks.Benchmarks = append([]string{"FMM"}, benchmarks.Benchmarks[1:]...)
		for name, other := range map[string]experiment.Options{"seed": seed, "benchmarks": benchmarks} {
			bad := filepath.Join(t.TempDir(), "shard-1")
			putJobs(t, bad, other.Digest(), shardOf(other, 1, 3).Jobs())
			err := mergeGlobs(named, shard0Dir, bad, shard2Dir)
			if err == nil {
				t.Fatalf("merge accepted a shard store of a sweep with other %s", name)
			}
			wantErr(t, err, shard1[0].String())
		}
	})
	t.Run("foreign-result", func(t *testing.T) {
		// Shard 1's store holds shard 0's first job in place of its own:
		// whichever of the two comes first in the sweep is named, as doubly
		// held or as missing.
		bad := filepath.Join(t.TempDir(), "shard-1")
		putJobs(t, bad, opts.Digest(), append([]experiment.Key{shard0[0]}, shard1[1:]...))
		err := mergeGlobs(named, shard0Dir, bad, shard2Dir)
		for _, k := range opts.Jobs() {
			if k == shard0[0] {
				wantErr(t, err, k.String()+" is in more than one store")
				break
			}
			if k == shard1[0] {
				wantErr(t, err, k.String()+" is in none")
				break
			}
		}
	})
	t.Run("truncated-results", func(t *testing.T) {
		// Shard 1's store lost its last job.
		bad := filepath.Join(t.TempDir(), "shard-1")
		putJobs(t, bad, opts.Digest(), shard1[:len(shard1)-1])
		err := mergeGlobs(named, shard0Dir, bad, shard2Dir)
		wantErr(t, err, shard1[len(shard1)-1].String()+" is in none")
	})
}

// TestMergeStoreGlob covers the glob front door: a glob matching no stores,
// a malformed glob and a matched path that is not a store each fail, and a
// refused path is never turned into an empty store.
func TestMergeStoreGlob(t *testing.T) {
	opts := mergeOptions()
	root := runShardStores(t, opts, 3)
	named := []experiment.NamedOptions{{Options: opts}}
	if err := mergeGlobs(named, filepath.Join(root, "shard-*")); err != nil {
		t.Fatalf("merging every shard store: %v", err)
	}

	t.Run("empty-glob", func(t *testing.T) {
		wantErr(t, mergeGlobs(named, filepath.Join(root, "nothing-*")), "matches no stores")
	})
	t.Run("invalid-glob", func(t *testing.T) {
		wantErr(t, mergeGlobs(named, "[unclosed"), "invalid glob")
	})
	t.Run("unreadable-shard", func(t *testing.T) {
		// A leftover shard file matched next to the stores.
		path := filepath.Join(root, "shard-x.json")
		if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
		err := mergeGlobs(named, filepath.Join(root, "shard-*"))
		if !errors.Is(err, ErrStore) {
			t.Fatalf("merging a file: got %v, want ErrStore", err)
		}
		wantErr(t, err, path)
	})
	t.Run("empty-directory", func(t *testing.T) {
		dir := t.TempDir()
		err := mergeGlobs(named, dir)
		if !errors.Is(err, ErrStore) {
			t.Fatalf("merging an empty directory: got %v, want ErrStore", err)
		}
		if segs, _ := segments(dir); len(segs) != 0 {
			t.Fatalf("refused merge created %d segment(s) in %s", len(segs), dir)
		}
	})
}

// TestOpenGlobRejectsGarbageSegment: a matched directory whose segment is
// not a segment fails with ErrStore naming the file.
func TestOpenGlobRejectsGarbageSegment(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenGlob(dir, Options{})
	if !errors.Is(err, ErrStore) {
		t.Fatalf("opening a garbage segment: got %v, want ErrStore", err)
	}
	wantErr(t, err, path)
}
