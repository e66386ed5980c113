package resultcache

// Sharded sweeps and their merge.  `leaksweep -shard i/n -cache DIR_i` runs
// one slice of a sweep per process (or machine) into its own store; since a
// shard slice is not part of Options.Digest, every slice records under the
// full sweep's digest.  `leaksweep -merge 'DIR_*'` opens the stores, checks
// that they hold every job of the sweep exactly once, and runs the sweep
// with their union as the pool's Reuse: nothing is simulated, and the
// report comes from the same code an unsharded warm run uses.

import (
	"fmt"
	"path/filepath"
	"strings"

	"cmpleak/internal/core"
	"cmpleak/internal/experiment"
)

// OpenGlob opens every store whose directory matches glob: a
// filepath.Match pattern that may also hold shell-style {a,b} alternatives.
// A glob that matches nothing is an error, never an empty set: a typo in
// the pattern must not look like a finished sweep.  Every match must
// already be a store, a directory holding at least one segment, so a stray
// path fails with ErrStore instead of becoming a fresh empty store.
func OpenGlob(glob string, opt Options) ([]*Store, error) {
	var paths []string
	seen := make(map[string]bool)
	for _, alt := range expandBraces(glob) {
		matches, err := filepath.Glob(alt)
		if err != nil {
			return nil, fmt.Errorf("resultcache: invalid glob %q: %w", glob, err)
		}
		for _, m := range matches {
			if !seen[m] {
				seen[m] = true
				paths = append(paths, m)
			}
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("resultcache: glob %q matches no stores", glob)
	}
	stores := make([]*Store, 0, len(paths))
	for _, path := range paths {
		s, err := openExisting(path, opt)
		if err != nil {
			for _, s := range stores {
				s.Close()
			}
			return nil, err
		}
		stores = append(stores, s)
	}
	return stores, nil
}

// expandBraces expands every {a,b,...} group of pattern into its
// alternatives, left to right; groups do not nest.
func expandBraces(pattern string) []string {
	open := strings.IndexByte(pattern, '{')
	if open < 0 {
		return []string{pattern}
	}
	end := strings.IndexByte(pattern[open:], '}')
	if end < 0 {
		return []string{pattern}
	}
	end += open
	var out []string
	for _, alt := range strings.Split(pattern[open+1:end], ",") {
		out = append(out, expandBraces(pattern[:open]+alt+pattern[end+1:])...)
	}
	return out
}

// openExisting opens the store in dir, refusing a path that holds no
// segment.
func openExisting(dir string, opt Options) (*Store, error) {
	segs, err := segments(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrStore, dir, err)
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("%w: %s holds no segment files", ErrStore, dir)
	}
	return Open(dir, opt)
}

// Merge checks that the stores together hold every job of the batch cells
// exactly once and returns the union of their ReuseFor, for
// experiment.Parallelism.Reuse.  A job that no store holds, or that two
// stores hold, is an error naming the cell and the key, so a pool wired
// with the union simulates nothing.
func Merge(stores []*Store, cells []experiment.NamedOptions) (func(cell string, key experiment.Key) (core.Result, bool), error) {
	reuses := make([]func(string, experiment.Key) (core.Result, bool), len(stores))
	for i, s := range stores {
		reuses[i] = s.ReuseFor(cells)
	}
	for _, c := range cells {
		for _, k := range c.Options.Jobs() {
			var held []string
			for i, reuse := range reuses {
				if _, ok := reuse(c.Name, k); ok {
					held = append(held, stores[i].dir)
				}
			}
			if len(held) == 1 {
				continue
			}
			job := "job " + k.String()
			if c.Name != "" {
				job = fmt.Sprintf("cell %q %s", c.Name, job)
			}
			if len(held) == 0 {
				return nil, fmt.Errorf("resultcache: merge: %s is in none of the %d store(s)", job, len(stores))
			}
			return nil, fmt.Errorf("resultcache: merge: %s is in more than one store: %s", job, strings.Join(held, ", "))
		}
	}
	return func(cell string, key experiment.Key) (core.Result, bool) {
		for _, reuse := range reuses {
			if r, ok := reuse(cell, key); ok {
				return r, true
			}
		}
		return core.Result{}, false
	}, nil
}
