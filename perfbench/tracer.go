package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public functions.  Spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Start is relative to the tracer's creation.
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// Agg marks a span whose Dur sums many short calls made inside its
	// parent (batch refills, thermal steps) rather than one interval.
	Agg bool `json:"agg,omitempty"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records an interval span and returns its ID (0 when untraced).
func (t *tracer) add(op, parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: start.Sub(t.t0), Dur: end.Sub(start)})
	return id
}

// addAgg records an aggregated child span of parent.
func (t *tracer) addAgg(op, parent int, layer, name string, total time.Duration) {
	if t == nil || total <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var start time.Duration
	if parent > 0 {
		start = t.spans[parent-1].Start
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: start, Dur: total, Agg: true})
}

// selfTimes returns each layer's self time in seconds, averaged over ops
// operations.  A span's self time is its duration minus the part of its
// interval covered by its interval children and minus its aggregated
// children; concurrent children (pool workers) are merged before they are
// subtracted.
func (t *tracer) selfTimes(ops int) map[string]float64 {
	out := make(map[string]float64, len(selfLayers))
	for _, l := range selfLayers {
		out[l] = 0
	}
	if t == nil || ops == 0 {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		self := s.Dur
		if !s.Agg {
			self -= covered(s, children[s.ID])
		}
		if _, ok := out[s.Layer]; ok && self > 0 {
			out[s.Layer] += self.Seconds() / float64(ops)
		}
	}
	return out
}

// covered is how much of p's interval its children account for: the union
// of the interval children clipped to p, plus the aggregated children.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	var agg time.Duration
	for _, k := range kids {
		if k.Agg {
			agg += k.Dur
			continue
		}
		a, b := max(k.Start, p.Start), min(k.Start+k.Dur, p.Start+p.Dur)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var union time.Duration
	var end time.Duration = -1
	for _, v := range ivs {
		if v.a > end {
			union += v.b - v.a
			end = v.b
		} else if v.b > end {
			union += v.b - end
			end = v.b
		}
	}
	return union + agg
}

// write saves the spans as JSON lines, headed by the host record, to
// dir/<workload>-seed<seed>.jsonl.
func (t *tracer) write(dir, workload string, seed uint64, h host) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]any{"host": h, "workload": workload, "seed": seed})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// setEnd closes an interval span opened before its end was known.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Dur = end.Sub(t.t0) - s.Start
}
