package hgpart

import (
	"context"
	"math/rand"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
)

// Multilevel coarsening: vertices are pairwise matched — by default with
// the heavy-connectivity criterion (match the neighbor sharing the most
// nets), the unweighted analogue of Mondriaan's inner-product matching —
// and contracted into a coarser hypergraph until the instance is small
// enough for direct initial partitioning.

// level records one coarsening step: the coarse hypergraph plus the map
// from fine vertices to coarse vertices, so partitions can be projected
// back down.
type level struct {
	coarse *hypergraph.Hypergraph
	map_   []int32 // fine vertex -> coarse vertex
}

// match pairs up vertices and returns the fine→coarse vertex map and
// the coarse level's logical→physical label (its length is the number
// of coarse vertices; see numberCoarse). maxClusterWt bounds merged
// weights so no coarse vertex becomes unplaceable under the balance
// constraint. The mate and connectivity arrays come from sc; vmap and
// label are always freshly allocated because the caller keeps them per
// level.
func match(h *hypergraph.Hypergraph, rng *rand.Rand, cfg Config, maxClusterWt int64, pl *pool.Pool, sc *Scratch) (vmap, label []int32) {
	mate, conn := sc.matchBuffers(h.NumVerts)
	order := sc.perm(rng, h)

	netLimit := cfg.MatchingNetLimit
	if netLimit <= 0 {
		netLimit = defaultMatchingNetLimit
	}

	switch {
	case cfg.RandomMatching:
		matchRandom(h, order, mate, netLimit, maxClusterWt)
	case cfg.Workers != 0:
		matchProposal(h, order, mate, nil, netLimit, maxClusterWt, pl, sc)
	default:
		matchHeavyConnectivity(h, order, mate, conn, netLimit, maxClusterWt)
	}
	return numberCoarse(mate, order)
}

// numberCoarse turns a matching into coarse vertex ids, consuming mate
// (its entries are overwritten once read). Physically, coarse vertices
// are numbered by their first fine vertex, so clusters of neighbouring
// fine vertices stay neighbours and the coarse pin lists keep the fine
// level's locality (random numbering would scatter every pin access of
// the next level across arrays far larger than cache).
// Logically, coarse vertex k is the k-th cluster the randomized order
// reaches — the numbering coarse levels historically stored — and
// label[k] is its physical id. Drawing every random order through the
// label (levelPerm) makes each level behave exactly as it did under
// that numbering, so the layout never changes a result bit.
func numberCoarse(mate []int32, order []int) (vmap, label []int32) {
	vmap = make([]int32, len(mate))
	for i := range vmap {
		vmap[i] = -1
	}
	next := int32(0)
	for v, m := range mate {
		if vmap[v] >= 0 {
			continue // second fine vertex of an earlier cluster
		}
		vmap[v] = next
		if m >= 0 {
			vmap[m] = next
		}
		next++
	}
	// A cluster's first visit marks both its fine vertices consumed, so
	// the visit of its second vertex is skipped.
	const consumed = -2
	label = make([]int32, next)
	k := 0
	for _, v := range order {
		m := mate[v]
		if m == consumed {
			continue
		}
		label[k] = vmap[v]
		k++
		mate[v] = consumed
		if m >= 0 {
			mate[m] = consumed
		}
	}
	return vmap, label
}

// matchHeavyConnectivity matches each unmatched vertex with the unmatched
// neighbor it shares the most nets with (ties go to the first-seen
// candidate in the randomized sweep). Nets larger than netLimit are
// skipped: they connect nearly everything and only slow matching down.
// conn is a zeroed scratch array of length NumVerts; every touched entry
// is reset before returning.
func matchHeavyConnectivity(h *hypergraph.Hypergraph, order []int, mate, conn []int32, netLimit int, maxClusterWt int64) {
	cand := make([]int32, 0, 64)
	for _, vi := range order {
		v := int32(vi)
		if mate[v] >= 0 {
			continue
		}
		cand = cand[:0]
		for _, n := range h.NetsOf(int(v)) {
			if h.NetSize(int(n)) > netLimit {
				continue
			}
			for _, u := range h.NetPins(int(n)) {
				if u == v || mate[u] >= 0 {
					continue
				}
				if conn[u] == 0 {
					cand = append(cand, u)
				}
				conn[u]++
			}
		}
		var best int32 = -1
		var bestConn int32
		for _, u := range cand {
			if conn[u] > bestConn && h.VertWt[v]+h.VertWt[u] <= maxClusterWt {
				best, bestConn = u, conn[u]
			}
			conn[u] = 0 // reset scratch
		}
		if best >= 0 {
			mate[v] = best
			mate[best] = v
		}
	}
}

// matchRandom pairs each unmatched vertex with a random unmatched
// neighbor — the cheaper scheme used by the alternative ("PaToH-like")
// configuration.
func matchRandom(h *hypergraph.Hypergraph, order []int, mate []int32, netLimit int, maxClusterWt int64) {
	for _, vi := range order {
		v := int32(vi)
		if mate[v] >= 0 {
			continue
		}
		var pick int32 = -1
		for _, n := range h.NetsOf(int(v)) {
			if h.NetSize(int(n)) > netLimit {
				continue
			}
			for _, u := range h.NetPins(int(n)) {
				if u != v && mate[u] < 0 && h.VertWt[v]+h.VertWt[u] <= maxClusterWt {
					pick = u
					break
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick >= 0 {
			mate[v] = pick
			mate[pick] = v
		}
	}
}

// contract builds the coarse hypergraph induced by vmap and labelled by
// label (len(label) coarse vertices; see numberCoarse): vertex weights
// are summed, net pins are mapped and deduplicated, and nets that shrink
// to a single pin are dropped (they can never be cut at this or any
// coarser level). The coarse hypergraph's own arrays are freshly
// allocated (it outlives the scratch turnover: the V-cycle revisits every
// level on the way back up); only the dedup stamp and the per-net pin
// accumulator come from sc. With cfg.Workers != 0 the pin-building loop
// runs in parallel over the pool; its output is bit-identical to the
// sequential loop (see contractParallel), so turning workers on or off
// never changes a partitioning result through this function.
func contract(h *hypergraph.Hypergraph, vmap, label []int32, cfg Config, pl *pool.Pool, sc *Scratch) *hypergraph.Hypergraph {
	numCoarse := len(label)
	// The two-pass parallel loop deduplicates every net twice; with a
	// single-worker pool that is pure overhead for an identical result,
	// so fall through to the sequential loop.
	if cfg.Workers != 0 && pl.Workers() > 1 {
		coarse := contractParallel(h, vmap, numCoarse, pl, sc)
		coarse.Label = label
		return coarse
	}
	wt := make([]int64, numCoarse)
	for v := 0; v < h.NumVerts; v++ {
		wt[vmap[v]] += h.VertWt[v]
	}
	// Accumulate the deduplicated nets into the scratch first, then copy
	// once into exactly-sized owned arrays: the coarse hypergraph must
	// own its memory (the V-cycle revisits every level on the way back
	// up), but building it through an append-grown Builder used to
	// allocate the growth chain on top of the final arrays every level.
	stamp, pins := sc.contractBuffers(numCoarse)
	ptr := sc.contractPtr()
	for n := 0; n < h.NumNets; n++ {
		start := len(pins)
		for _, v := range h.NetPins(n) {
			cv := vmap[v]
			if stamp[cv] != int32(n) {
				stamp[cv] = int32(n)
				pins = append(pins, cv)
			}
		}
		if len(pins)-start >= 2 {
			ptr = append(ptr, int32(len(pins)))
		} else {
			// Nets that shrink to a single pin can never be cut at this
			// or any coarser level; drop them.
			pins = pins[:start]
		}
	}
	netPtr := append(make([]int32, 0, len(ptr)), ptr...)
	outPins := append(make([]int32, 0, len(pins)), pins...)
	sc.keepPins(pins)
	sc.keepPtr(ptr)
	coarse := hypergraph.FromCSR(numCoarse, wt, netPtr, outPins)
	coarse.Label = label
	return coarse
}

// contractParallel is the multi-goroutine formulation of contract. Nets
// are independent — each coarse pin list is the first-occurrence
// deduplication of one fine net's mapped pins — so the work splits into
// two passes over disjoint net ranges: pass one computes every net's
// deduplicated size, a sequential prefix scan then assigns kept nets
// (>= 2 pins) their slot in the output arrays, and pass two re-runs the
// deduplication writing each net's pins straight into its slot. Every
// chunk runs the same first-occurrence order the sequential loop uses
// and net order is preserved by the prefix scan, so the coarse
// hypergraph is bit-identical to contract's for any worker count. Each
// chunk needs a private dedup stamp (the shared Scratch is owned by one
// goroutine); that per-chunk allocation is the price of the parallel
// pass and is bounded by workers × numCoarse.
func contractParallel(h *hypergraph.Hypergraph, vmap []int32, numCoarse int, pl *pool.Pool, sc *Scratch) *hypergraph.Hypergraph {
	wt := make([]int64, numCoarse)
	for v := 0; v < h.NumVerts; v++ {
		wt[vmap[v]] += h.VertWt[v]
	}
	numNets := h.NumNets
	sizes, off := sc.contractParBuffers(numNets)

	// Pass 1: deduplicated size of every coarse net.
	pl.ForEach(numNets, func(lo, hi int) {
		stamp := newStamp(numCoarse)
		for n := lo; n < hi; n++ {
			var sz int32
			for _, v := range h.NetPins(n) {
				cv := vmap[v]
				if stamp[cv] != int32(n) {
					stamp[cv] = int32(n)
					sz++
				}
			}
			sizes[n] = sz
		}
	})

	// Prefix scan: kept nets get contiguous pin slots in net order.
	netPtr := make([]int32, 1, numNets+1)
	var total int32
	for n := 0; n < numNets; n++ {
		if sizes[n] >= 2 {
			off[n] = total
			total += sizes[n]
			netPtr = append(netPtr, total)
		} else {
			off[n] = -1
		}
	}
	pins := make([]int32, total)

	// Pass 2: fill each kept net's slot in first-occurrence order.
	pl.ForEach(numNets, func(lo, hi int) {
		stamp := newStamp(numCoarse)
		for n := lo; n < hi; n++ {
			at := off[n]
			if at < 0 {
				continue
			}
			for _, v := range h.NetPins(n) {
				cv := vmap[v]
				if stamp[cv] != int32(n) {
					stamp[cv] = int32(n)
					pins[at] = cv
					at++
				}
			}
		}
	})
	return hypergraph.FromCSR(numCoarse, wt, netPtr, pins)
}

// newStamp returns a fresh dedup stamp array of length n filled with -1.
func newStamp(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// coarsen produces the multilevel hierarchy, stopping when the hypergraph
// is small enough, matching stalls, or ctx is canceled (the hierarchy
// built so far is returned; the caller checks ctx).
func coarsen(ctx context.Context, h *hypergraph.Hypergraph, eps float64, rng *rand.Rand, cfg Config, pl *pool.Pool, sc *Scratch) []level {
	coarsenTo := cfg.CoarsenTo
	if coarsenTo <= 0 {
		coarsenTo = defaultCoarsenTo
	}
	stall := cfg.MaxCoarsenRatio
	if stall <= 0 {
		stall = defaultMaxCoarsenRatio
	}
	// A coarse vertex heavier than the part cap can never be placed;
	// cap clusters well below it.
	maxClusterWt := balancedCaps(h.TotalWeight(), eps)[0] / 3
	if maxClusterWt < 1 {
		maxClusterWt = 1
	}

	var levels []level
	cur := h
	for cur.NumVerts > coarsenTo {
		if ctx.Err() != nil {
			break
		}
		vmap, label := match(cur, rng, cfg, maxClusterWt, pl, sc)
		if float64(len(label)) > stall*float64(cur.NumVerts) {
			break // matching stalled; further levels would not shrink
		}
		coarse := contract(cur, vmap, label, cfg, pl, sc)
		levels = append(levels, level{coarse: coarse, map_: vmap})
		cur = coarse
	}
	return levels
}
