package scope

import (
	"math"
	"strings"
	"testing"
)

// TestHistogramSum: the histogram sums observations (guards the CAS
// loop).
func TestHistogramSum(t *testing.T) {
	h := NewHistogram([]float64{.0005, .001, .0025, .005, .01})
	h.Observe(0.001)
	h.Observe(0.002)
	if n := h.Count(); n != 2 {
		t.Fatalf("count = %d", n)
	}
	if sum := h.Sum(); math.Abs(sum-0.003) > 1e-9 {
		t.Fatalf("sum = %g", sum)
	}
}

// TestHistogramWriteSeries pins the exposition bytes of one series,
// unlabeled and labeled: cumulative buckets, an observation above the
// last bound counted only in +Inf, and the le label last.
func TestHistogramWriteSeries(t *testing.T) {
	h := NewHistogram([]float64{2.5e-05, .001, 1})
	h.Observe(0.0005)
	h.Observe(0.5)
	h.Observe(7)
	var b strings.Builder
	WriteFamily(&b, "Test latency.", "histogram", "x_seconds")
	h.WriteSeries(&b, "x_seconds", "")
	h.WriteSeries(&b, "x_seconds", `shard="a"`)
	want := `# HELP x_seconds Test latency.
# TYPE x_seconds histogram
x_seconds_bucket{le="2.5e-05"} 0
x_seconds_bucket{le="0.001"} 1
x_seconds_bucket{le="1"} 2
x_seconds_bucket{le="+Inf"} 3
x_seconds_sum 7.5005
x_seconds_count 3
x_seconds_bucket{shard="a",le="2.5e-05"} 0
x_seconds_bucket{shard="a",le="0.001"} 1
x_seconds_bucket{shard="a",le="1"} 2
x_seconds_bucket{shard="a",le="+Inf"} 3
x_seconds_sum{shard="a"} 7.5005
x_seconds_count{shard="a"} 3
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}
