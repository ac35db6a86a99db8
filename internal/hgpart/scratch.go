package hgpart

import "mediumgrain/internal/sparse"

// Scratch holds the reusable working arrays of one multilevel
// bipartition run: coarsening's matching and contraction buffers and
// FM's pin-count/bucket/bookkeeping arrays. The multilevel V-cycle
// builds a fresh hypergraph per level but its working sets have the same
// shape every level, so one Scratch per worker replaces the
// allocate-per-level pattern with overwrites.
//
// A Scratch is owned by exactly one goroutine at a time (the recursive
// bisection driver hands one to each pool worker); the concurrent inner
// phases — parallel initial-partition tries, proposal-round matching —
// deliberately do not touch it. A nil *Scratch is valid everywhere and
// means "allocate fresh", preserving the one-shot entry points.
type Scratch struct {
	// Matching: the mate array and zeroed connectivity counters, one per
	// concurrently scanning chunk of proposal-round matching (conns[0]
	// is also the sequential matchers' counter).
	mate  []int32
	conns [][]int32
	// Contraction.
	stamp []int32
	pins  []int32
	ctPtr []int32
	// Parallel contraction (per-net sizes and pin offsets; written by
	// disjoint net ranges, scanned by the owning goroutine).
	ctSizes []int32
	ctOff   []int32
	// FM refinement.
	netSt   []netState
	locked  []bool
	gains   []int32
	moves   []int32
	buckets gainBuckets
	// Boundary-only passes.
	bndMark []bool
	bndWork []int32
	// Speculative boundary batches (ParallelFM): per-net touched marks
	// (all-false between rounds) and the touched-net log that re-lowers
	// them in O(touched).
	specMark []bool
	specNets []int32
	// Randomized orders (fmPass, matching).
	permBuf []int
}

// reserve grows every size-tracking buffer to the dimensions of the
// finest hypergraph of a multilevel run. Buffer sizes only shrink while
// coarsening, but refinement walks the hierarchy back up — without the
// reserve, each ascending level's acquisition re-grows pin counts, gain
// buckets, permutations, and marks (sparse.Resize allocates exactly, so
// every growth is a fresh array). One call per run makes all of those
// acquisitions overwrite-only. Contents are not touched; every
// acquisition helper still initializes what it hands out.
func (sc *Scratch) reserve(numVerts, numNets int) {
	if sc == nil {
		return
	}
	sc.mate = sparse.Resize(sc.mate, numVerts)
	conns := sc.connSlots(1)
	conns[0] = sparse.Resize(conns[0], numVerts)
	sc.stamp = sparse.Resize(sc.stamp, numVerts)
	sc.ctSizes = sparse.Resize(sc.ctSizes, numNets)
	sc.ctOff = sparse.Resize(sc.ctOff, numNets)
	sc.netSt = sparse.Resize(sc.netSt, numNets)
	sc.locked = sparse.Resize(sc.locked, numVerts)
	sc.gains = sparse.Resize(sc.gains, numVerts)
	sc.bndMark = sparse.Resize(sc.bndMark, numVerts)
	sc.specMark = sparse.Resize(sc.specMark, numNets)
	sc.permBuf = sparse.Resize(sc.permBuf, numVerts)
	g := &sc.buckets
	g.next = sparse.Resize(g.next, numVerts)
	g.prev = sparse.Resize(g.prev, numVerts)
	g.gain = sparse.Resize(g.gain, numVerts)
	g.side = sparse.Resize(g.side, numVerts)
	g.in = sparse.Resize(g.in, numVerts)
	// The heads arrays are deliberately NOT pre-grown here: reinit owns
	// them, because growth must come with the -1 fill of the drained
	// invariant — a bare Resize hands back zeroed memory, where every
	// entry would read as "vertex 0".
}

// matchBuffers returns the mate array (filled with -1) and the zeroed
// connectivity counter for a matching sweep over nv vertices.
func (sc *Scratch) matchBuffers(nv int) (mate, conn []int32) {
	if sc == nil {
		mate = make([]int32, nv)
		for i := range mate {
			mate[i] = -1
		}
		return mate, make([]int32, nv)
	}
	sc.mate = sparse.Resize(sc.mate, nv)
	for i := range sc.mate {
		sc.mate[i] = -1
	}
	conns := sc.connSlots(1)
	conns[0] = sparse.Resize(conns[0], nv)
	clear(conns[0])
	return sc.mate, conns[0]
}

// connSlots returns the connectivity-counter slots, at least n of them.
// Each user sizes the slot it takes; counters are kept all-zero between
// uses by their users, and growth hands out zeroed memory.
func (sc *Scratch) connSlots(n int) [][]int32 {
	for len(sc.conns) < n {
		sc.conns = append(sc.conns, nil)
	}
	return sc.conns
}

// proposalBuffers returns matchProposal's rank and proposal arrays
// (uninitialized: every entry is written before it is read) and its
// connectivity-counter slots for up to workers concurrent chunks.
// Matching never overlaps FM or contraction on one Scratch, so rank
// borrows FM's gain buffer and proposal the contraction stamp (which
// contractBuffers refills before use): the parallel matcher keeps no
// per-vertex array of its own beyond one counter per extra worker.
func (sc *Scratch) proposalBuffers(nv, workers int) (rank, proposal []int32, conns [][]int32) {
	if sc == nil {
		return make([]int32, nv), make([]int32, nv), make([][]int32, workers)
	}
	sc.stamp = sparse.Resize(sc.stamp, nv)
	return sc.gainBuf(nv), sc.stamp, sc.connSlots(workers)
}

// contractBuffers returns the stamp array (filled with -1) and an empty
// pin accumulator for contracting onto numCoarse vertices.
func (sc *Scratch) contractBuffers(numCoarse int) (stamp []int32, pins []int32) {
	if sc == nil {
		stamp = make([]int32, numCoarse)
		for i := range stamp {
			stamp[i] = -1
		}
		return stamp, make([]int32, 0, 64)
	}
	sc.stamp = sparse.Resize(sc.stamp, numCoarse)
	for i := range sc.stamp {
		sc.stamp[i] = -1
	}
	return sc.stamp, sc.pins[:0]
}

// contractParBuffers returns the per-net size and offset arrays of the
// parallel contraction, uninitialized (every entry is written before it
// is read).
func (sc *Scratch) contractParBuffers(numNets int) (sizes, off []int32) {
	if sc == nil {
		return make([]int32, numNets), make([]int32, numNets)
	}
	sc.ctSizes = sparse.Resize(sc.ctSizes, numNets)
	sc.ctOff = sparse.Resize(sc.ctOff, numNets)
	return sc.ctSizes, sc.ctOff
}

// keepPins records the (possibly grown) pin accumulator back into the
// scratch so its capacity carries over to the next contraction.
func (sc *Scratch) keepPins(pins []int32) {
	if sc != nil {
		sc.pins = pins[:0]
	}
}

// contractPtr returns the net-pointer accumulator of a contraction,
// seeded with the leading 0 of a CSR pointer array.
func (sc *Scratch) contractPtr() []int32 {
	if sc == nil {
		return append(make([]int32, 0, 64), 0)
	}
	return append(sc.ctPtr[:0], 0)
}

// keepPtr records the grown net-pointer accumulator back into the
// scratch.
func (sc *Scratch) keepPtr(ptr []int32) {
	if sc != nil {
		sc.ctPtr = ptr[:0]
	}
}

// netStates returns the per-net counter records of bipState (pin counts
// and locked-pin counts, packed per net), uninitialized: the state
// constructor resets every record in its counting pass, and fmPass
// re-zeroes the locked counts it touched before returning, so the
// locked halves stay all-zero between passes without per-pass
// O(numNets) clears.
func (sc *Scratch) netStates(numNets int) []netState {
	if sc == nil {
		return make([]netState, numNets)
	}
	sc.netSt = sparse.Resize(sc.netSt, numNets)
	return sc.netSt
}

// boundaryMarks returns the all-false per-vertex boundary flags of a
// boundary-only pass. No clearing happens here: the pass resets every
// flag it raised while inserting the collected boundary, and freshly
// grown arrays come zeroed, so acquisition is O(1).
func (sc *Scratch) boundaryMarks(numVerts int) []bool {
	if sc == nil {
		return make([]bool, numVerts)
	}
	sc.bndMark = sparse.Resize(sc.bndMark, numVerts)
	return sc.bndMark
}

// boundaryWork returns an empty vertex worklist (boundary collection at
// pass start, newly-cut tracking during the pass — the uses do not
// overlap, so they share one backing array).
func (sc *Scratch) boundaryWork() []int32 {
	if sc == nil {
		return make([]int32, 0, 64)
	}
	return sc.bndWork[:0]
}

// keepBoundaryWork records the (possibly grown) worklist back into the
// scratch so its capacity carries over to the next pass.
func (sc *Scratch) keepBoundaryWork(work []int32) {
	if sc != nil {
		sc.bndWork = work[:0]
	}
}

// specMarks returns the all-false per-net touched flags of a
// speculative round. No clearing happens here: the round re-lowers
// every flag it raised via its touched-net log, and freshly grown
// arrays come zeroed, so acquisition is O(1).
func (sc *Scratch) specMarks(numNets int) []bool {
	if sc == nil {
		return make([]bool, numNets)
	}
	sc.specMark = sparse.Resize(sc.specMark, numNets)
	return sc.specMark
}

// specNetLog returns an empty touched-net log for a speculative round.
func (sc *Scratch) specNetLog() []int32 {
	if sc == nil {
		return make([]int32, 0, 64)
	}
	return sc.specNets[:0]
}

// keepSpecNetLog records the (possibly grown) touched-net log back into
// the scratch so its capacity carries over to the next round.
func (sc *Scratch) keepSpecNetLog(log []int32) {
	if sc != nil {
		sc.specNets = log[:0]
	}
}

// fmBuffers returns the per-pass FM arrays: the gain buckets sized for
// (numVerts, maxDeg), the all-false locked flags, and an empty move
// log. No clearing happens here: fmPass leaves the buckets drained and
// the locked flags reset on every exit path (and sparse.Resize hands
// out zeroed memory when it must grow), so acquisition is O(1).
func (sc *Scratch) fmBuffers(numVerts, maxDeg int) (g *gainBuckets, locked []bool, moves []int32) {
	if sc == nil {
		return newGainBuckets(numVerts, maxDeg), make([]bool, numVerts), make([]int32, 0, numVerts)
	}
	sc.buckets.reinit(numVerts, maxDeg)
	sc.locked = sparse.Resize(sc.locked, numVerts)
	return &sc.buckets, sc.locked, sc.moves[:0]
}

// keepMoves records the grown move log back into the scratch.
func (sc *Scratch) keepMoves(moves []int32) {
	if sc != nil {
		sc.moves = moves[:0]
	}
}

// gainBuf returns the parallel-gain-initialization array.
func (sc *Scratch) gainBuf(numVerts int) []int32 {
	if sc == nil {
		return make([]int32, numVerts)
	}
	sc.gains = sparse.Resize(sc.gains, numVerts)
	return sc.gains
}

// reinit resizes the bucket structure for a hypergraph of numVerts
// vertices and maximum degree maxDeg, reusing the backing arrays. It
// relies on the drained invariant — every head -1, every in false, in
// entries beyond the current length included — which drain() restores
// after each pass and which freshly grown (zeroed) arrays satisfy for
// `in`; only a grown heads array needs its -1 fill.
func (g *gainBuckets) reinit(numVerts, maxDeg int) {
	g.maxDeg = maxDeg
	hn := 2*maxDeg + 1
	for s := 0; s < 2; s++ {
		if cap(g.heads[s]) < hn {
			g.heads[s] = make([]int32, hn)
			for i := range g.heads[s] {
				g.heads[s][i] = -1
			}
		} else {
			g.heads[s] = g.heads[s][:hn]
		}
		g.maxGain[s] = -1
		g.count[s] = 0
	}
	g.next = sparse.Resize(g.next, numVerts)
	g.prev = sparse.Resize(g.prev, numVerts)
	g.gain = sparse.Resize(g.gain, numVerts)
	g.side = sparse.Resize(g.side, numVerts)
	g.in = sparse.Resize(g.in, numVerts)
}
