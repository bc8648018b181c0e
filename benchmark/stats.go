package main

import (
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending without touching the caller's slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the acceptance procedure uses to
// judge run-to-run spread; fewer than two values return the value thrice.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
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
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailLadder lists the percentiles a tail metric may report. A rung is
// supported only when at least tailBeyond samples lie beyond it, so the
// value is never one outlier.
var tailLadder = []float64{50, 75, 90, 95, 99}

const tailBeyond = 10

// tailRung returns the highest ladder percentile with at least tailBeyond
// samples beyond it in a sample of n; the median when none qualifies.
func tailRung(n int) float64 {
	rung := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= tailBeyond {
			rung = p
		}
	}
	return rung
}

// worseBy returns how much cand is worse than base as a share of base
// (negative when cand is better); better is "lower" or "higher".
func worseBy(base, cand float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (cand - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}

// regressed reports whether cand is worse than base by more than the
// relative bound AND by more than the absolute floor (in the metric's own
// unit). The floor keeps sub-noise differences on tiny values — a 0.03 s
// change of a 0.1 s set-up — from counting as regressions; 0 disables it.
func regressed(base, cand float64, better string, bound, floor float64) bool {
	if worseBy(base, cand, better) <= bound {
		return false
	}
	return math.Abs(cand-base) > floor
}
