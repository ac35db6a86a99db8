package hgpart

import (
	"sync/atomic"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
	"mediumgrain/internal/sparse"
)

// proposalRounds bounds the rounds of matchProposal. The greedy commit
// matches nearly every vertex whose proposal target survives the round;
// later rounds only mop up vertices whose targets were stolen, so a
// small constant suffices.
const proposalRounds = 3

// matchProposal is the concurrent formulation of heavy-connectivity
// matching: instead of a sequential greedy sweep whose every decision
// depends on the previous one, it runs synchronous proposal rounds. In
// each round every unmatched vertex independently computes its preferred
// unmatched neighbor — the one sharing the most nets, ties broken by the
// earlier position in the randomized order — against the mate state
// frozen at the round start; this scan is the expensive part and fans
// out over the pool. A cheap sequential commit then walks the
// randomized order and pairs each still-unmatched vertex with its
// proposal target if that target is still free. Both phases are
// deterministic, so the outcome is identical for every worker count
// (including inline execution on a nil pool).
//
// A non-nil sideOf restricts matching to vertices with equal sideOf
// values — the restricted matching of V-cycle refinement, which must
// never merge across the current bipartition.
//
// The rank and proposal arrays and the per-chunk connectivity counters
// come from sc (nil allocates fresh), so the many small levels of a
// recursive bisection pay no per-level allocation.
func matchProposal(h *hypergraph.Hypergraph, order []int, mate []int32, sideOf []int, netLimit int, maxClusterWt int64, pl *pool.Pool, sc *Scratch) {
	nv := h.NumVerts
	rank, proposal, conns := sc.proposalBuffers(nv, pl.Workers())
	// rank[v] is v's position in the randomized order; it is the
	// deterministic tie-breaker replacing the sweep's first-seen rule.
	for i, v := range order {
		rank[v] = int32(i)
	}

	for round := 0; round < proposalRounds; round++ {
		// ForEach runs at most pl.Workers() chunks; each claims its own
		// connectivity counter slot.
		var slot atomic.Int32
		pl.ForEach(nv, func(lo, hi int) {
			i := slot.Add(1) - 1
			conns[i] = sparse.Resize(conns[i], nv)
			conn := conns[i] // zeroed: every user resets touched entries
			cand := make([]int32, 0, 64)
			for vi := lo; vi < hi; vi++ {
				v := int32(vi)
				proposal[v] = -1
				if mate[v] >= 0 {
					continue
				}
				cand = cand[:0]
				for _, n := range h.NetsOf(vi) {
					if h.NetSize(int(n)) > netLimit {
						continue
					}
					for _, u := range h.NetPins(int(n)) {
						if u == v || mate[u] >= 0 {
							continue
						}
						if sideOf != nil && sideOf[u] != sideOf[v] {
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
					if h.VertWt[v]+h.VertWt[u] <= maxClusterWt &&
						(conn[u] > bestConn ||
							(conn[u] == bestConn && best >= 0 && rank[u] < rank[best])) {
						best, bestConn = u, conn[u]
					}
					conn[u] = 0 // reset scratch
				}
				proposal[v] = best
			}
		})

		matched := 0
		for _, vi := range order {
			v := int32(vi)
			if mate[v] >= 0 {
				continue
			}
			if u := proposal[v]; u >= 0 && mate[u] < 0 {
				mate[v] = u
				mate[u] = v
				matched++
			}
		}
		if matched == 0 {
			break
		}
	}
}
