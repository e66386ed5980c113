package experiment

import (
	"fmt"
	"strings"
)

// Headline summarises the abstract's claim for one cache size: the energy
// reduction and IPC loss of Protocol, Decay and Selective Decay averaged
// over all benchmarks (the paper reports 13%/30%/21% energy at 0%/8%/2% IPC
// loss for 4 MB).
type Headline struct {
	SizeMB int
	// Ordered as {Protocol, Decay, SelectiveDecay} using the largest decay
	// time present in the sweep (the paper's headline uses the technique
	// family, not a specific decay time; 512K is the least aggressive).
	Techniques       []string
	EnergyReductions []float64
	IPCLosses        []float64
}

// HeadlineAt computes the headline comparison for one total cache size.
func (s *Sweep) HeadlineAt(sizeMB int) Headline {
	h := Headline{SizeMB: sizeMB}
	pick := func(prefix string) string {
		// Choose the first technique in configured order matching the
		// family prefix (ties go to the least aggressive decay time, which
		// is listed first in the paper's sweep).  "decay" must not match
		// the "sel_decay" family.
		for _, name := range s.TechniqueNames() {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			if prefix == "decay" && strings.HasPrefix(name, "sel_") {
				continue
			}
			return name
		}
		return ""
	}
	for _, name := range []string{pick("protocol"), pick("decay"), pick("sel_decay")} {
		if name == "" {
			continue
		}
		h.Techniques = append(h.Techniques, name)
		e, _ := s.averageOverBenchmarks(sizeMB, name, metricEnergyReduction)
		i, _ := s.averageOverBenchmarks(sizeMB, name, metricIPCLoss)
		h.EnergyReductions = append(h.EnergyReductions, e)
		h.IPCLosses = append(h.IPCLosses, i)
	}
	return h
}

// String renders the headline in the style of the paper's abstract.
func (h Headline) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "For %d MB total L2 cache:\n", h.SizeMB)
	for i, tech := range h.Techniques {
		fmt.Fprintf(&b, "  %-14s energy reduction %5.1f%%  at IPC loss %5.1f%%\n",
			tech, h.EnergyReductions[i]*100, h.IPCLosses[i]*100)
	}
	return b.String()
}
