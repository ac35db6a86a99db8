package main

import (
	"fmt"
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one slow request, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1): the
// smallest sample with at least a q share of samples at or below it. It
// fails unless at least minBeyond samples lie beyond the chosen rank, so
// p99 needs 1000 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, n-rank, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// so spreads computed here match the ones the benchmark's acceptance
// rule computes. xs needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // after clamping, as Python computes it
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// verdict is the parent-vs-change rule for one metric.
type verdict struct {
	Pairs        int     `json:"pairs"`
	Wins         int     `json:"wins"` // pairs where the change is strictly better
	Losses       int     `json:"losses"`
	ParentMedian float64 `json:"parent_median"`
	ChangeMedian float64 `json:"change_median"`
	ParentIQR    float64 `json:"parent_iqr"`
	Gain         bool    `json:"gain"`
	Reason       string  `json:"reason"`
}

// compareRule applies the benchmark's rule for claiming a gain: at
// least ten pairs, the change winning at least nine tenths of them (ties
// count for neither side), and the medians differing by more than the
// parent's interquartile range. parent[i] and change[i] form pair i.
func compareRule(parent, change []float64, lowerBetter bool) verdict {
	v := verdict{Pairs: len(parent)}
	if len(parent) != len(change) {
		v.Reason = fmt.Sprintf("unpaired: %d parent vs %d change runs", len(parent), len(change))
		return v
	}
	for i := range parent {
		d := change[i] - parent[i]
		if lowerBetter {
			d = -d
		}
		switch {
		case d > 0:
			v.Wins++
		case d < 0:
			v.Losses++
		}
	}
	v.ParentMedian, v.ChangeMedian = median(parent), median(change)
	if v.Pairs < 10 {
		v.Reason = fmt.Sprintf("%d pairs, need at least 10", v.Pairs)
		return v
	}
	q1, q3 := quartiles(parent)
	v.ParentIQR = q3 - q1
	gap := v.ChangeMedian - v.ParentMedian
	if lowerBetter {
		gap = -gap
	}
	switch {
	case v.Wins*10 < v.Pairs*9:
		v.Reason = fmt.Sprintf("change won %d of %d pairs, need nine tenths", v.Wins, v.Pairs)
	case gap <= v.ParentIQR:
		v.Reason = fmt.Sprintf("median gap %.6g is not larger than the parent's IQR %.6g", gap, v.ParentIQR)
	default:
		v.Gain = true
		v.Reason = fmt.Sprintf("won %d of %d pairs; median gap %.6g > parent IQR %.6g", v.Wins, v.Pairs, gap, v.ParentIQR)
	}
	return v
}
