package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Start and End
// are host nanoseconds since the round began; Parent is the ID of the
// span that caused it (0 for a round's top-level calls).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one round's spans in memory. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branch.
// Spans may be opened from several goroutines (the selfcheck fan-out),
// hence the mutex; parents are passed explicitly, never inferred from a
// per-goroutine stack.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it that its children cover. Children
// that run in parallel are merged as a union of intervals, so overlap is
// not subtracted twice.
func selfTimes(spans []Span) map[string]float64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := unionLen(kids[s.ID], s.Start, s.End)
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// totalTimes returns, per span name, the summed span duration in seconds.
func totalTimes(spans []Span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// unionLen is the length of the union of ivs clipped to [lo, hi].
func unionLen(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}
