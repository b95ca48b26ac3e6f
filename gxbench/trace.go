package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the system.
// Spans of one request, cell or run share a Trace id; Parent links a span
// to the span that caused it (0 for roots). Attrs carries the counters
// read at the same boundary, so every per-layer metric sits on the span
// where it was measured.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Trace  string             `json:"trace"`
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay (almost) no tracing cost.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to seconds since the tracer's epoch.
func (t *tracer) at(when time.Time) float64 { return when.Sub(t.epoch).Seconds() }

// id returns the span's id, 0 for no span.
func (sp *span) id() int64 {
	if sp == nil {
		return 0
	}
	return sp.ID
}

// begin opens a span starting now.
func (t *tracer) begin(trace, layer, name string, parent *span) *span {
	return t.add(trace, layer, name, parent.id(), time.Now())
}

// add opens a span with an explicit parent id and start time.
func (t *tracer) add(trace, layer, name string, parent int64, start time.Time) *span {
	if t == nil {
		return nil
	}
	sp := &span{Trace: trace, Layer: layer, Name: name, Parent: parent, Start: t.at(start)}
	t.mu.Lock()
	sp.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// end closes sp now.
func (t *tracer) end(sp *span) { t.endAt(sp, time.Now()) }

// endAt closes sp at an explicit time.
func (t *tracer) endAt(sp *span, when time.Time) {
	if t == nil || sp == nil {
		return
	}
	t.mu.Lock()
	sp.End = t.at(when)
	t.mu.Unlock()
}

// set records a metric into vals and, when traced, onto sp.
func (t *tracer) set(sp *span, vals values, name string, v float64) {
	vals[name] = v
	if t == nil || sp == nil {
		return
	}
	t.mu.Lock()
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]float64)
	}
	sp.Attrs[name] = v
	t.mu.Unlock()
}

// selfTimes returns each layer's self time: the sum over its spans of the
// span's duration minus the part of it that its child spans cover
// (children that overlap, such as pooled cells, count once).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]*span)
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[string]float64)
	for _, sp := range t.spans {
		self[sp.Layer] += (sp.End - sp.Start) - covered(sp, children[sp.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent *span, kids []*span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// write saves the spans and per-layer self times as one JSON document.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	doc := struct {
		Spans    []*span            `json:"spans"`
		SelfTime map[string]float64 `json:"self_time_s"`
	}{t.spans, self}
	data, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
