package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Parent is the ID of the span that was open when this one began (0 for a
// root); Run identifies the pass every span of one trace belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced twin of the traced pass runs exactly
// the same code. Spans nest strictly (each end closes the innermost open
// span), so a tracer belongs to one goroutine.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
	open  []int // indices into spans of the spans still open, innermost last
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// span opens a span named name and returns the function that closes it.
func (t *tracer) span(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Run: t.run, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = int64(time.Since(t.epoch))
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children.
func (t *tracer) selfTimes() []time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur() - covered(children[s.ID])
	}
	return self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var total int64
	lo, hi := sorted[0].Start, sorted[0].End
	for _, s := range sorted[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return time.Duration(total + hi - lo)
}

// byName returns the self times of the spans named name, in start order.
func (t *tracer) byName(name string) []time.Duration {
	self := t.selfTimes()
	var out []time.Duration
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, self[i])
		}
	}
	return out
}

// write saves the spans, with per-name totals of duration and self time,
// as one JSON document.
func (t *tracer) write(path string) error {
	type layer struct {
		Name    string  `json:"name"`
		Count   int     `json:"count"`
		TotalMs float64 `json:"totalMs"`
		SelfMs  float64 `json:"selfMs"`
	}
	self := t.selfTimes()
	idx := make(map[string]int)
	var layers []layer
	for i, s := range t.spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(layers)
			idx[s.Name] = j
			layers = append(layers, layer{Name: s.Name})
		}
		layers[j].Count++
		layers[j].TotalMs += ms(s.dur())
		layers[j].SelfMs += ms(self[i])
	}
	data, err := json.MarshalIndent(map[string]any{
		"run":    t.run,
		"layers": layers,
		"spans":  t.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
