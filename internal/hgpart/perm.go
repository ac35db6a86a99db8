package hgpart

import (
	"math/rand"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/sparse"
)

// permSequence fills out[:n] with the permutation rand.Perm(n) would
// return, drawing the identical values from rng: the loop below is
// exactly math/rand's inside-out Fisher–Yates (m[i] = m[j]; m[j] = i
// with j = Intn(i+1)), so it consumes the same rng stream and produces
// the same order byte for byte — the bit-identity the per-seed
// determinism guarantees rest on. With a non-nil label the loop writes
// label[i] where rand.Perm writes i; Fisher–Yates only moves values, so
// out[k] is label[rand.Perm(n)[k]] from the same draws. out must have
// length >= n.
func permSequence(rng *rand.Rand, n int, label []int32, out []int) []int {
	out = out[:n]
	if label == nil {
		for i := 0; i < n; i++ {
			j := rng.Intn(i + 1)
			out[i] = out[j]
			out[j] = i
		}
		return out
	}
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		out[i] = out[j]
		out[j] = int(label[i])
	}
	return out
}

// levelPerm returns the physical ids of h's vertices in the order
// rng.Perm(h.NumVerts) visits their logical ids (see
// hypergraph.Hypergraph.Label): a random order over a level drawn
// independently of how the level is stored.
func levelPerm(rng *rand.Rand, h *hypergraph.Hypergraph) []int {
	return permSequence(rng, h.NumVerts, h.Label, make([]int, h.NumVerts))
}

// perm is levelPerm backed by the scratch's reusable buffer. It
// replaces the O(n)-per-pass allocations of the refinement stack
// (fmPass's vertex order and coarsening's matching order). A nil
// Scratch allocates fresh. The permutation is valid until the next perm
// call on the same Scratch.
func (sc *Scratch) perm(rng *rand.Rand, h *hypergraph.Hypergraph) []int {
	if sc == nil {
		return levelPerm(rng, h)
	}
	sc.permBuf = sparse.Resize(sc.permBuf, h.NumVerts)
	return permSequence(rng, h.NumVerts, h.Label, sc.permBuf)
}
