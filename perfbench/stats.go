package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to count as measured rather than guessed.
const minBeyond = 10

// tailQuantile returns the quantile to report for a tail metric nominally
// at want (0.90 for a p90) over n samples: want itself when at least
// minBeyond samples lie beyond it, otherwise the highest quantile that
// still has minBeyond samples beyond it. It returns 0.5 when n is too
// small to support any tail.
func tailQuantile(want float64, n int) float64 {
	if n <= 2*minBeyond {
		return 0.5
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q > want {
		q = want
	}
	return q
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method). xs need not be sorted; it is not
// modified. An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so the steadiness report matches a check made with
// that function. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		// statistics.quantiles, method="exclusive", n=4: m = len+1,
		// j = floor(i*m/4) clamped to [1, len-1], delta = i*m - 4j, and
		// the result interpolates (or, at the clamped ends, extrapolates)
		// between s[j-1] and s[j].
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
