package experiment

import "testing"

func TestOptionsDigest(t *testing.T) {
	a := parallelOptions()
	if a.Digest() != a.Digest() {
		t.Fatal("digest is not deterministic")
	}
	seen := map[string]string{a.Digest(): "base"}
	mutate := map[string]func(*Options){
		"scale":     func(o *Options) { o.Scale *= 2 },
		"seed":      func(o *Options) { o.Seed++ },
		"benchmark": func(o *Options) { o.Benchmarks = []string{"FMM"} },
		"sizes":     func(o *Options) { o.CacheSizesMB = []int{2} },
		"technique": func(o *Options) { o.Techniques = o.Techniques[:1] },
		"base":      func(o *Options) { o.Base.L2MSHREntries++ },
	}
	for name, f := range mutate {
		o := parallelOptions()
		f(&o)
		d := o.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("mutating %q digests identically to %q", name, prev)
		}
		seen[d] = name
	}
	// A shard slice selects jobs; it does not change what a job key
	// simulates, so every slice digests like the unsharded sweep.
	for n := 2; n <= 4; n++ {
		for i := 0; i < n; i++ {
			o := parallelOptions()
			o.ShardIndex, o.ShardCount = i, n
			if o.Digest() != a.Digest() {
				t.Errorf("shard %d/%d digests differently from the unsharded options", i, n)
			}
		}
	}
	// Recorded before the shard slice left the digest: unsharded digests
	// are byte-identical, so every existing store still hits.
	const pinned = "ff7ead434c8ed223cc6832401e5944d9bd403eddd30eac93b00a9d5253b2c948"
	if got := DefaultOptions(0.02).Digest(); got != pinned {
		t.Errorf("DefaultOptions(0.02).Digest() = %s, want %s", got, pinned)
	}
}
