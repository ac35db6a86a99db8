package hgpart

import (
	"context"
	"math/rand"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
)

// Tuning constants of the ParallelFM refinement layers. All of them are
// fixed (never derived from the live worker count or pool occupancy), so
// the work decomposition — and with it every result bit — is identical
// at every pool size.
const (
	// raceMaxVerts is the coarse-level cutoff: refine calls on
	// hypergraphs at most this large run as raceTries independent FM
	// sequences racing on the pool. Coarse levels are cheap enough that
	// K-fold redundancy costs little and buys both quality (best-of-K)
	// and occupancy for workers that would otherwise idle through the
	// serial coarse upstroke.
	raceMaxVerts = 2048
	// raceTries is K, the number of raced FM sequences per coarse-level
	// refine call.
	raceTries = 4
	// specMinVerts is the fine-level threshold above which refine runs
	// the speculative boundary prepass; below it the fan-out overhead
	// dominates the boundary scan it parallelizes.
	specMinVerts = raceMaxVerts
	// specBatchSize is the fixed vertex count of one speculative batch.
	// Batches are cut from the boundary worklist by size, NOT per
	// worker: per-worker batches would move batch boundaries (and hence
	// the conflict pattern) with the pool size, breaking the
	// bit-identity-at-every-worker-count contract. The pool schedules
	// whole batches onto whichever workers are free.
	specBatchSize = 256
	// specMaxRounds bounds the speculative rounds per refine call; each
	// round re-collects the boundary, so a handful of rounds harvests
	// the bulk of the independent positive-gain moves and leaves the
	// rest to the serial passes.
	specMaxRounds = 4
)

// parallelFMOn reports whether cfg enables the parallel refinement
// layers: the ParallelFM flag on the parallel engine (Workers != 0).
// The sequential legacy engine ignores the flag — its contract is the
// exact historical move sequence, which racing would change.
func parallelFMOn(cfg Config) bool {
	return cfg.ParallelFM && cfg.Workers != 0
}

// refineRace is coarse-level FM try racing (ParallelFM layer 1): it
// runs raceTries FM pass sequences — each on its own copy of parts and
// its own Scratch — concurrently on pl, and keeps the best result by
// (overload, cut, try index). Try 0 is the serial continuation: it is
// the only consumer of the caller's rng and draws from it exactly as a
// plain refine would, so the caller's stream advances as in serial mode
// and, whenever no extra try strictly wins, the race reproduces the
// serial-mode result of this level bit for bit. Tries 1..raceTries-1
// explore independent substreams seeded from a side stream hashed from
// the input partition (raceSalt) — never from the caller's rng — and
// the winner scan breaks ties toward the lowest try index, so an extra
// try displaces the serial result only when strictly better. Seeds and
// batching are fixed before any work fans out, so the outcome is
// bit-identical for every pool size (including pl == nil, which runs
// the tries inline).
//
// parts is overwritten with the winning bipartition; the winning cut
// is returned.
func refineRace(ctx context.Context, h *hypergraph.Hypergraph, parts []int, maxW [2]int64, rng *rand.Rand, cfg Config, pl *pool.Pool, sc *Scratch) int64 {
	side := rand.New(rand.NewSource(raceSalt(h, parts)))
	seeds := make([]int64, raceTries)
	for t := 1; t < raceTries; t++ {
		seeds[t] = side.Int63()
	}
	// The raced sequences are plain serial refinements: no nested racing
	// (the pool is already saturated with whole tries) and no
	// speculative prepass (coarse levels sit below its threshold anyway).
	tcfg := cfg
	tcfg.ParallelFM = false
	type try struct {
		parts     []int
		cut, over int64
	}
	results := make([]try, raceTries)
	pl.ForEach(raceTries, func(lo, hi int) {
		// A private per-chunk scratch: the caller's sc must not be
		// touched by concurrent tries, but tries within one chunk still
		// share buffers (the scratch never influences results).
		var chunkSc Scratch
		for t := lo; t < hi; t++ {
			// Try 0 owns the caller's stream; no other try touches it.
			rt := rng
			if t > 0 {
				rt = rand.New(rand.NewSource(seeds[t]))
			}
			tparts := make([]int, len(parts))
			copy(tparts, parts)
			cut := refine(ctx, h, tparts, maxW, rt, tcfg, nil, &chunkSc)
			results[t] = try{tparts, cut, overloadOf(h, tparts, maxW)}
		}
	})
	best := 0
	for t := 1; t < raceTries; t++ {
		if better(results[t].cut, results[t].over, results[best].cut, results[best].over) {
			best = t
		}
	}
	copy(parts, results[best].parts)
	return results[best].cut
}

// speculativePrepass is fine-level speculative refinement (ParallelFM
// layer 2): up to specMaxRounds rounds of batched optimistic boundary
// moves run before the serial FM passes, harvesting the independent
// positive-gain moves of the boundary in parallel so the serial passes
// start from a better state and converge in fewer moves. Each round is
// monotone in the cut and preserves feasibility, so the prepass can
// only help the passes that follow. A round that commits nothing ends
// the prepass; an infeasible state skips it entirely (balance repair
// needs the exact serial pass's interior moves).
func speculativePrepass(ctx context.Context, s *bipState, rng *rand.Rand, pl *pool.Pool, sc *Scratch) {
	if s.overload() != 0 {
		return
	}
	for round := 0; round < specMaxRounds; round++ {
		if ctx.Err() != nil {
			return
		}
		if speculativeRound(s, rng, pl, sc) == 0 {
			return
		}
	}
}

// speculativeRound runs one optimistic round over the current boundary:
//
//  1. Collect the boundary worklist (the pins of cut nets) in
//     permutation order drawn from rng — the deterministic analogue of
//     a serial pass's bucket seeding order.
//  2. Cut the worklist into fixed-size batches and compute every
//     vertex's move gain concurrently against the current bipState as a
//     read-only snapshot (gainOf only reads pin counts; nothing moves
//     during this phase).
//  3. Commit serially in batch order, validating each candidate against
//     the conflict set: the nets whose pin counts an earlier accepted
//     move of this round touched. A conflicted candidate's snapshot
//     gain is stale, so it is skipped — the conflicted residue is left
//     for the serial passes that follow the prepass. Accepted moves are
//     strictly improving (gain > 0, exact by the conflict check) and
//     weight-checked against the live part weights, so the cut strictly
//     decreases and feasibility is preserved.
//
// Both the batch boundaries (fixed specBatchSize) and the commit order
// (worklist order) are independent of the pool size, and the parallel
// phase writes only per-vertex gain slots, so the round is
// bit-identical at every worker count — including pl == nil.
//
// Returns the number of committed moves.
func speculativeRound(s *bipState, rng *rand.Rand, pl *pool.Pool, sc *Scratch) int {
	h := s.h
	nv := h.NumVerts

	// Phase 1: boundary worklist in permutation order.
	bnd := sc.boundaryMarks(nv)
	for n := 0; n < h.NumNets; n++ {
		if st := &s.net[n]; st[0] > 0 && st[1] > 0 {
			for _, u := range h.NetPins(n) {
				bnd[u] = true
			}
		}
	}
	work := sc.boundaryWork()
	defer func() { sc.keepBoundaryWork(work) }()
	for _, v := range sc.perm(rng, h) {
		if bnd[v] {
			work = append(work, int32(v))
			bnd[v] = false // restore the all-false invariant
		}
	}
	if len(work) == 0 {
		return 0
	}

	// Phase 2: snapshot gains, batch-parallel. gains is indexed by
	// vertex; each batch writes disjoint slots, so chunking over the
	// batches cannot influence the values.
	gains := sc.gainBuf(nv)
	numBatches := (len(work) + specBatchSize - 1) / specBatchSize
	pl.ForEach(numBatches, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			batch := work[b*specBatchSize : minInt((b+1)*specBatchSize, len(work))]
			for _, v := range batch {
				gains[v] = s.gainOf(v)
			}
		}
	})

	// Phase 3: serial validated commit in batch order.
	touched := sc.specMarks(h.NumNets)
	touchedLog := sc.specNetLog()
	defer func() { sc.keepSpecNetLog(touchedLog) }()
	committed := 0
	for _, v := range work {
		if gains[v] <= 0 {
			continue
		}
		conflict := false
		for _, n := range h.NetsOf(int(v)) {
			if touched[n] {
				conflict = true
				break
			}
		}
		if conflict {
			continue // residue: the serial pass will reconsider it
		}
		to := 1 - s.parts[v]
		if s.partWt[to]+h.VertWt[v] > s.maxW[to] {
			continue
		}
		s.move(v, nil, nil)
		committed++
		for _, n := range h.NetsOf(int(v)) {
			if !touched[n] {
				touched[n] = true
				touchedLog = append(touchedLog, n)
			}
		}
	}
	for _, n := range touchedLog {
		touched[n] = false // restore the all-false invariant
	}
	return committed
}

// raceSalt hashes the input bipartition (FNV-1a), in logical vertex
// order (see hypergraph.Hypergraph.Label), into the seed of the extra
// racing tries' side stream. The salt is a pure function of call state
// — independent of the pool, of the level's physical layout and of the
// caller's RNG — so the extra tries are deterministic per seed without
// moving a single draw of the caller's stream off its serial-mode
// trajectory.
func raceSalt(h *hypergraph.Hypergraph, parts []int) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	for l := range parts {
		v := l
		if h.Label != nil {
			v = int(h.Label[l])
		}
		x ^= uint64(uint8(parts[v]))
		x *= prime64
	}
	return int64(x >> 1)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
