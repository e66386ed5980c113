package scenario

// Scenario fan-out tests: a multi-cell scenario run through the shared pool
// must produce, per cell, exactly the Sweep a serial experiment.Run of that
// cell's Options produces — the scenario layer adds routing, never results.

import (
	"bytes"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/experiment"
)

// fanoutScenario expands to two cells (2- and 4-core) of two jobs each
// (baseline + decay) at a tiny scale.
const fanoutScenario = `{
  "version": 1,
  "name": "fanout",
  "benchmarks": ["FMM"],
  "l2_sizes_mb": [1],
  "techniques": ["decay:8K"],
  "core_counts": [2, 4],
  "scale": 0.005
}`

func TestRunCellsMatchesSerialPerCell(t *testing.T) {
	f, err := Parse([]byte(fanoutScenario))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := f.Expand(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("scenario expands to %d cells, want 2", len(cells))
	}

	var cellsSeen []string
	sweeps, err := RunCells(cells, experiment.Parallelism{
		Workers:  4,
		Progress: func(ev experiment.JobEvent) { cellsSeen = append(cellsSeen, ev.Cell) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != len(cells) {
		t.Fatalf("RunCells returned %d sweeps for %d cells", len(sweeps), len(cells))
	}

	totalJobs := 0
	for i, cell := range cells {
		serial, err := experiment.Run(cell.Options)
		if err != nil {
			t.Fatalf("%s: serial reference failed: %v", cell.Name, err)
		}
		if got, want := sweeps[i].Digest(), serial.Digest(); got != want {
			t.Errorf("%s: pooled cell digest diverged from serial run:\n  got:  %s\n  want: %s",
				cell.Name, got, want)
		}
		if got, want := report(t, sweeps[i]), report(t, serial); got != want {
			t.Errorf("%s: pooled cell report diverged from serial run", cell.Name)
		}
		totalJobs += len(cell.Options.Jobs())
	}

	if len(cellsSeen) != totalJobs {
		t.Fatalf("got %d progress events, want %d", len(cellsSeen), totalJobs)
	}
	names := map[string]bool{}
	for _, c := range cellsSeen {
		names[c] = true
	}
	for _, cell := range cells {
		if !names[cell.Name] {
			t.Errorf("no progress event carried cell %q", cell.Name)
		}
	}
}

// report renders the full markdown report of s, as leaksweep prints it.
func report(t *testing.T, s *experiment.Sweep) string {
	t.Helper()
	var buf bytes.Buffer
	if err := experiment.WriteReport(&buf, s, "", false); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
