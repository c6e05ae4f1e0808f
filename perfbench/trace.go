package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one operation share Op; Parent indexes the span
// that caused this one (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs skip every span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose start and end the caller measured itself.
func (t *tracer) record(name string, op int64, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return int32(len(t.spans) - 1)
}

// child records a span of known duration laid end to end inside parent,
// starting at offset ns after the parent's start. It serves layers that
// time their own steps, such as the translator's pass ledger.
func (t *tracer) child(name string, parent int32, offset, dur int64) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Op: p.Op, Parent: parent, Start: p.Start + offset, End: p.Start + offset + dur})
}

// selfTimes returns every span's duration minus the part its children
// cover, in nanoseconds.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfMs returns the self times, in milliseconds, of the spans named name.
func (t *tracer) selfMs(name string) []float64 {
	self := t.selfTimes()
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e6)
		}
	}
	return out
}

// reconcile splits the operations rooted at spans named root into layer
// self times. It takes the operations whose durations lie in the middle
// fifth (the 40th to 60th percentile), so the figures describe the
// median operation: the mean duration there (p50), the mean sum of the
// layer spans' self times, and the mean self time of the root itself —
// time inside the operation that no layer span covers, reported as its
// own line rather than spread over the layers.
func (t *tracer) reconcile(root string) (p50, layerSum, unattributed float64) {
	self := t.selfTimes()
	type opSum struct{ dur, layers, root int64 }
	ops := map[int64]*opSum{}
	for i, s := range t.spans {
		if s.Name == root && s.Parent < 0 {
			ops[s.Op] = &opSum{dur: s.End - s.Start, root: self[i]}
		}
	}
	for i, s := range t.spans {
		if o := ops[s.Op]; o != nil && s.Name != root {
			o.layers += self[i]
		}
	}
	list := make([]*opSum, 0, len(ops))
	for _, o := range ops {
		list = append(list, o)
	}
	if len(list) == 0 {
		return 0, 0, 0
	}
	sort.Slice(list, func(i, j int) bool { return list[i].dur < list[j].dur })
	lo, hi := len(list)*2/5, (len(list)*3+4)/5
	if hi <= lo {
		lo, hi = 0, len(list)
	}
	var d, l, r float64
	for _, o := range list[lo:hi] {
		d += float64(o.dur)
		l += float64(o.layers)
		r += float64(o.root)
	}
	n := float64(hi-lo) * 1e6
	return d / n, l / n, r / n
}

// reportReconcile fills the reconciliation lines for operations rooted at
// root.
func (r *run) reportReconcile(root string) {
	p50, layers, rest := r.tr.reconcile(root)
	r.layers["reconcile.p50_ms"] = p50
	r.layers["reconcile.layer_sum_ms"] = layers
	r.layers["reconcile.unattributed_ms"] = rest
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
