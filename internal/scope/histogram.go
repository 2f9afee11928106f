package scope

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"
)

// The exposition writer of maod's and maorouter's /metrics: a
// hand-rolled Prometheus text format, stdlib only — the format is a
// few lines of text.

// Histogram is a cumulative fixed-bucket histogram in the Prometheus
// sense: counts[i] counts observations ≤ bounds[i] (observations above
// the last bound land only in the +Inf bucket, i.e. the total), and the
// sum carries the total in float64 bits for atomic access.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram returns an empty histogram over the ascending bucket
// upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// WriteSeries writes h as one series of the histogram family name:
// the cumulative _bucket lines, _sum and _count. labels is the series'
// label set without braces (`shard="http://..."`), or "" for none.
func (h *Histogram) WriteSeries(w io.Writer, name, labels string) {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	writeHistogramSeries(w, name, labels, h.bounds, counts, h.Count(), h.Sum())
}

// writeHistogramSeries renders one histogram series from per-bucket
// (non-cumulative) counts over bounds and the total observation count.
func writeHistogramSeries(w io.Writer, name, labels string, bounds []float64, counts []int64, total int64, sum float64) {
	le, set := "{", ""
	if labels != "" {
		le, set = "{"+labels+",", "{"+labels+"}"
	}
	cum := int64(0)
	for i, ub := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%sle=\"%s\"} %d\n", name, le, strconv.FormatFloat(ub, 'g', -1, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, le, total)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, set, sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, total)
}

// WriteFamily writes the # HELP and # TYPE header of a metric family.
func WriteFamily(w io.Writer, help, typ, name string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteMetric writes a whole counter or gauge family: the header, then
// one sample per (label set, value) pair, where a label set is "" or
// braced (`{code="200"}`) and the value is already formatted.
func WriteMetric(w io.Writer, help, typ, name string, pairs ...string) {
	WriteFamily(w, help, typ, name)
	for i := 0; i+1 < len(pairs); i += 2 {
		fmt.Fprintf(w, "%s%s %s\n", name, pairs[i], pairs[i+1])
	}
}
