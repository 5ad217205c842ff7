package main

import (
	"math"
	"testing"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		want float64
		n    int
		q    float64
	}{
		{0.90, 1000, 0.90},   // 100 beyond: p90 as asked
		{0.90, 100, 0.90},    // exactly 10 beyond
		{0.90, 50, 0.80},     // p90 would leave 5 beyond; p80 leaves 10
		{0.99, 1000, 0.99},   // exactly 10 beyond
		{0.99, 500, 0.98},    // p99 would leave 5
		{0.99, 100000, 0.99}, // never above the percentile asked for
		{0.90, 20, 0.5},      // too few for any tail
	} {
		q := tailQuantile(c.want, c.n)
		if math.Abs(q-c.q) > 1e-12 {
			t.Errorf("tailQuantile(%v, %d) = %v, want %v", c.want, c.n, q, c.q)
		}
		if q > 0.5 {
			if beyond := float64(c.n) * (1 - q); beyond < minBeyond-1e-9 {
				t.Errorf("tailQuantile(%v, %d) = %v leaves %.1f samples beyond", c.want, c.n, q, beyond)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.9: 4.6} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4), whose default method is "exclusive".
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
