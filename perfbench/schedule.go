package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// zipf draws ranks 0..n-1 with probability proportional to 1/(k+1)^s.
// math/rand's Zipf needs s > 1; the serve mix uses s = 0.9, so the
// benchmark samples an explicit cumulative table instead.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range n {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// prob is the probability of rank k.
func (z zipf) prob(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// arrival is one scheduled request: its intended send time, relative to
// the start of the phase, and the index of the spec it submits.
type arrival struct {
	At   time.Duration
	Spec int
}

// mix is the serve workloads' request population: two Zipf-ranked
// universes of specs, named corpus instances and inline uploads. The
// specs come in classes of equal size, one per matrix and part count,
// whose members differ only in the partitioning seed; a miss costs about
// the same within a class and very differently across classes. The
// ranking is stratified: each run of len(classes) consecutive ranks holds
// one member of every class, in a seeded random order. So the cached head
// and the missing tail of the mix hold the same classes in every run, and
// the seed moves which members are popular, not what a miss costs.
type mix struct {
	corpus, inline []int // spec indices by popularity rank
	zc, zi         zipf
	inlineShare    float64
}

func newMix(rng *rand.Rand, corpusClasses, inlineClasses [][]int, s, inlineShare float64) *mix {
	m := &mix{
		corpus:      stratified(rng, corpusClasses),
		inline:      stratified(rng, inlineClasses),
		inlineShare: inlineShare,
	}
	m.zc, m.zi = newZipf(len(m.corpus), s), newZipf(len(m.inline), s)
	return m
}

// stratified ranks the members of equal-sized classes: block b of the
// ranking takes the b-th member of every class (members shuffled within
// their class), the classes in a fresh random order per block.
func stratified(rng *rand.Rand, classes [][]int) []int {
	members := make([][]int, len(classes))
	for c, cl := range classes {
		members[c] = slices.Clone(cl)
		rng.Shuffle(len(cl), func(i, j int) { members[c][i], members[c][j] = members[c][j], members[c][i] })
	}
	var out []int
	for b := range len(classes[0]) {
		for _, c := range rng.Perm(len(classes)) {
			out = append(out, members[c][b])
		}
	}
	return out
}

func (m *mix) draw(rng *rand.Rand) int {
	if rng.Float64() < m.inlineShare {
		return m.inline[m.zi.draw(rng)]
	}
	return m.corpus[m.zc.draw(rng)]
}

// top returns the n most probable specs of the mix, most probable first.
func (m *mix) top(n int) []int {
	type cand struct {
		spec int
		p    float64
	}
	var all []cand
	for k, s := range m.corpus {
		all = append(all, cand{s, (1 - m.inlineShare) * m.zc.prob(k)})
	}
	for k, s := range m.inline {
		all = append(all, cand{s, m.inlineShare * m.zi.prob(k)})
	}
	slices.SortStableFunc(all, func(a, b cand) int {
		switch {
		case a.p > b.p:
			return -1
		case a.p < b.p:
			return 1
		}
		return 0
	})
	out := make([]int, 0, n)
	for _, c := range all[:min(n, len(all))] {
		out = append(out, c.spec)
	}
	return out
}

// poisson returns an open-loop schedule of n arrivals: exponential
// inter-arrival gaps at the given rate, each arrival drawing its spec
// from the mix. A fixed count, rather than a fixed window, keeps the
// number of latency samples, and so the reach of the tail percentile,
// the same on every run. The same rng state gives the same schedule.
func poisson(rng *rand.Rand, m *mix, rate float64, n int) []arrival {
	out := make([]arrival, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = arrival{At: time.Duration(t * float64(time.Second)), Spec: m.draw(rng)}
	}
	return out
}
