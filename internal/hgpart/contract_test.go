package hgpart

import (
	"math/rand"
	"reflect"
	"testing"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
)

// equalHypergraphs compares every stored array of two hypergraphs.
func equalHypergraphs(a, b *hypergraph.Hypergraph) bool {
	return a.NumVerts == b.NumVerts && a.NumNets == b.NumNets &&
		reflect.DeepEqual(a.VertWt, b.VertWt) &&
		reflect.DeepEqual(a.NetPtr, b.NetPtr) &&
		reflect.DeepEqual(a.Pins, b.Pins) &&
		reflect.DeepEqual(a.VertPtr, b.VertPtr) &&
		reflect.DeepEqual(a.VertNets, b.VertNets)
}

// TestContractParallelMatchesSequential proves the parallel contraction
// emits the exact coarse hypergraph of the sequential loop — same net
// order, same first-occurrence pin order — for a spread of random
// hypergraphs and worker counts, with and without a Scratch.
func TestContractParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 60, 50)
		vmap, label := match(h, rng, ConfigMondriaanLike(), h.TotalWeight(), nil, nil)

		want := contract(h, vmap, label, Config{}, nil, nil)
		for _, workers := range []int{1, 2, 4, 7} {
			pl := pool.New(workers)
			got := contractParallel(h, vmap, len(label), pl, nil)
			if !equalHypergraphs(want, got) {
				t.Fatalf("seed %d workers %d: parallel contraction diverged\nwant %v\ngot  %v",
					seed, workers, want, got)
			}
			sc := &Scratch{}
			got = contractParallel(h, vmap, len(label), pl, sc)
			if !equalHypergraphs(want, got) {
				t.Fatalf("seed %d workers %d: scratch-backed parallel contraction diverged", seed, workers)
			}
			if got.Validate() != nil {
				t.Fatalf("seed %d workers %d: invalid coarse hypergraph", seed, workers)
			}
		}
	}
}

// TestContractDispatchesOnWorkers checks the contract entry point routes
// to the parallel path without changing results.
func TestContractDispatchesOnWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomHypergraph(rng, 50, 40)
	vmap, label := match(h, rng, ConfigMondriaanLike(), h.TotalWeight(), nil, nil)
	seq := contract(h, vmap, label, Config{}, nil, nil)
	par := contract(h, vmap, label, Config{Workers: 3}, pool.New(3), nil)
	if !equalHypergraphs(seq, par) || !reflect.DeepEqual(seq.Label, label) || !reflect.DeepEqual(par.Label, label) {
		t.Fatal("contract with Workers != 0 diverged from the sequential result")
	}
}
