package workload

import "fmt"

// SyntheticConfig parameterises the generic configurable kernel used by unit
// tests, the quickstart example and microbenchmarks.  It exposes the same
// knobs the paper benchmarks are built from.
type SyntheticConfig struct {
	// Name labels the workload in reports; defaults to "synthetic".
	Name string
	// References is the number of memory references per core (before
	// scaling).
	References int
	// MeanCompute is the mean compute-instruction run between references.
	MeanCompute float64
	// StoreFraction is the probability a private reference is a store.
	StoreFraction float64
	// SharedFraction is the probability a reference targets shared data.
	SharedFraction float64
	// SharedStoreFraction is the store probability for shared references.
	SharedStoreFraction float64
	// PrivateBytes / SharedBytes size the footprints.
	PrivateBytes uint64
	SharedBytes  uint64
	// LocalitySkew is the Zipf skew for both regions (0 = uniform).
	LocalitySkew float64
	// Streaming makes private accesses sequential instead of Zipf-random.
	Streaming bool
	// Iterations repeats the reference pattern (longer generations).
	Iterations int
}

// DefaultSyntheticConfig returns a small, balanced kernel suitable for tests.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Name:                "synthetic",
		References:          20000,
		MeanCompute:         6,
		StoreFraction:       0.3,
		SharedFraction:      0.2,
		SharedStoreFraction: 0.2,
		PrivateBytes:        256 * 1024,
		SharedBytes:         256 * 1024,
		LocalitySkew:        0.5,
		Iterations:          1,
	}
}

// Validate checks the configuration.
func (c SyntheticConfig) Validate() error {
	if c.References <= 0 {
		return fmt.Errorf("workload: synthetic References must be positive")
	}
	if c.PrivateBytes == 0 && c.SharedBytes == 0 {
		return fmt.Errorf("workload: synthetic footprint is empty")
	}
	if c.StoreFraction < 0 || c.StoreFraction > 1 ||
		c.SharedFraction < 0 || c.SharedFraction > 1 ||
		c.SharedStoreFraction < 0 || c.SharedStoreFraction > 1 {
		return fmt.Errorf("workload: synthetic fractions must be in [0,1]")
	}
	return nil
}

// NewSynthetic builds a Generator from the config; scale multiplies the
// reference count.
func NewSynthetic(cfg SyntheticConfig, scale float64) (Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = "synthetic"
	}
	stride := uint64(0)
	if cfg.Streaming {
		stride = 1
	}
	line := uint64(64)
	return &phasedBenchmark{
		name:        name,
		privBytes:   cfg.PrivateBytes,
		sharedBytes: cfg.SharedBytes,
		lineBytes:   line,
		iterations:  cfg.Iterations,
		scale:       scale,
		phases: []phaseParams{{
			refs:            cfg.References,
			meanCompute:     cfg.MeanCompute,
			storeFrac:       cfg.StoreFraction,
			sharedFrac:      cfg.SharedFraction,
			sharedStoreFrac: cfg.SharedStoreFraction,
			privBlocks:      maxU64(cfg.PrivateBytes/line, 1),
			sharedBlocks:    maxU64(cfg.SharedBytes/line, 1),
			privSkew:        cfg.LocalitySkew,
			sharedSkew:      cfg.LocalitySkew,
			stride:          stride,
		}},
	}, nil
}
