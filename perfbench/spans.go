package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// This file is the benchmark's span recorder. Spans wrap the public calls
// the benchmark makes into each layer; the program itself records nothing.
// Spans stay in memory until the run ends, when they are written out and
// reduced to per-layer metrics. A nil *tracer is the untraced run: every
// method is a no-op and nothing is allocated.

// span is one timed call. ID groups the spans of one unit of work (a
// cell, a batch); Parent names the enclosing span's index, or -1.
type span struct {
	Name   string
	ID     int64
	Parent int
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

type tracer struct {
	mu     sync.Mutex
	spans  []span
	values map[string][]float64
}

func newTracer() *tracer { return &tracer{values: make(map[string][]float64)} }

// observe records a count or ratio measured at a layer boundary.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// observed returns a copy of every value recorded under name.
func (t *tracer) observed(name string) []float64 {
	if t == nil {
		return nil
	}
	return append([]float64(nil), t.values[name]...)
}

// begin opens a span and returns its handle (-1 when untraced).
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: time.Now()})
	return len(t.spans) - 1
}

// end closes the span h opened by begin.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// add records a span whose bounds the caller measured itself.
func (t *tracer) add(name string, id int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// durations returns the durations of every closed span called name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && !s.End.IsZero() {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for every closed span called name, its duration
// minus the part of its interval covered by its child spans.
func (t *tracer) selfTimes(name string) []time.Duration {
	if t == nil {
		return nil
	}
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && !s.End.IsZero() {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for i, s := range t.spans {
		if s.Name != name || s.End.IsZero() {
			continue
		}
		out = append(out, s.dur()-covered(s, children[i]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		if curE.IsZero() || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

// dump writes every span as one tab-separated line:
// name, id, parent, start and end in ns since the first span.
func (t *tracer) dump(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var origin time.Time
	if len(t.spans) > 0 {
		origin = t.spans[0].Start
	}
	fmt.Fprintln(w, "index\tname\tid\tparent\tstart_ns\tend_ns")
	for i, s := range t.spans {
		end := int64(-1)
		if !s.End.IsZero() {
			end = s.End.Sub(origin).Nanoseconds()
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.Name, s.ID, s.Parent, s.Start.Sub(origin).Nanoseconds(), end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by the nearest-rank method; NaN
// for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// scaled converts durations to float64 in the given unit.
func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
