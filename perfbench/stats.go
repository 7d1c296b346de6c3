package main

import (
	"math"
	"sort"
	"time"
)

// failedLatency is the latency recorded for an operation that failed or was
// refused: it misses every latency limit, so it sorts above every real one.
const failedLatency = time.Duration(math.MaxInt64)

// latencies collects per-operation round trips together with the attempt
// and failure counts.
type latencies struct {
	samples   []time.Duration
	attempted int
	failed    int
}

func (l *latencies) ok(d time.Duration) {
	l.samples = append(l.samples, d)
	l.attempted++
}

func (l *latencies) fail() {
	l.samples = append(l.samples, failedLatency)
	l.attempted++
	l.failed++
}

func (l *latencies) merge(o *latencies) {
	l.samples = append(l.samples, o.samples...)
	l.attempted += o.attempted
	l.failed += o.failed
}

// quantile returns the q-quantile of the samples with linear interpolation
// between order statistics. A failed operation is +Inf, so a quantile that
// reaches into the failures is +Inf too.
func (l *latencies) quantile(q float64) float64 {
	s := make([]float64, len(l.samples))
	for i, d := range l.samples {
		if d == failedLatency {
			s[i] = math.Inf(1)
		} else {
			s[i] = float64(d)
		}
	}
	return quantile(s, q)
}

// quantile of values (any order) with linear interpolation between order
// statistics; NaN when empty.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	if math.IsInf(s[hi], 1) {
		return math.Inf(1)
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// span is one timed call of the traced run. Parent is the index of the span
// that caused it, -1 at the root.
type span struct {
	Name     string        `json:"name"`
	Workload string        `json:"workload"`
	Parent   int           `json:"parent"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Self     time.Duration `json:"self_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Parent: parent, Start: time.Since(t.t0), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = time.Since(t.t0)
	return t.spans[i].End - t.spans[i].Start
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	i := t.begin(name, parent)
	fn()
	return t.end(i)
}

// selfTimes fills each span's Self: its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		covered := time.Duration(0)
		cur := s.Start
		for _, c := range ch {
			lo, hi := spans[c].Start, spans[c].End
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// durations returns the durations of every span named name, in units of
// unit.
func durations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}
