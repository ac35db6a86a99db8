package hgpart

import (
	"math/rand"
	"reflect"
	"testing"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
)

// randomHypergraph builds a connected-ish random hypergraph for the
// parallel-engine tests.
func parmatchHypergraph(seed int64, nv, nets, maxPins int) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	b := hypergraph.NewBuilder(nv, nil)
	for i := 0; i < nv; i++ {
		// Chain net keeps the hypergraph connected.
		if i+1 < nv {
			b.AddNetInts([]int{i, i + 1})
		}
	}
	for n := 0; n < nets; n++ {
		sz := 2 + rng.Intn(maxPins-1)
		seen := map[int32]bool{}
		pins := make([]int32, 0, sz)
		for len(pins) < sz {
			v := int32(rng.Intn(nv))
			if !seen[v] {
				seen[v] = true
				pins = append(pins, v)
			}
		}
		b.AddNet(pins)
	}
	h := b.Build()
	for v := range h.VertWt {
		h.VertWt[v] = 1
	}
	return h
}

// TestMatchProposalDeterministicAcrossPools verifies that the handshake
// matching produces the same pairing for inline execution and for any
// pool size, given the same randomized order.
func TestMatchProposalDeterministicAcrossPools(t *testing.T) {
	h := parmatchHypergraph(42, 600, 300, 6)
	runMatch := func(pl *pool.Pool) []int32 {
		mate := make([]int32, h.NumVerts)
		for i := range mate {
			mate[i] = -1
		}
		order := rand.New(rand.NewSource(7)).Perm(h.NumVerts)
		matchProposal(h, order, mate, nil, defaultMatchingNetLimit, h.TotalWeight(), pl, nil)
		return mate
	}
	ref := runMatch(nil)
	for _, workers := range []int{1, 2, 4, 8} {
		if got := runMatch(pool.New(workers)); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: matching differs from inline execution", workers)
		}
	}
	// The pairing must be a valid matching.
	for v, m := range ref {
		if m >= 0 && ref[m] != int32(v) {
			t.Fatalf("mate[%d]=%d but mate[%d]=%d", v, m, m, ref[m])
		}
	}
}

// TestMatchProposalMatchesMostVertices guards against the handshake
// scheme degenerating: on a structured hypergraph nearly all vertices
// should pair up within the bounded rounds.
func TestMatchProposalMatchesMostVertices(t *testing.T) {
	h := parmatchHypergraph(1, 1000, 800, 5)
	mate := make([]int32, h.NumVerts)
	for i := range mate {
		mate[i] = -1
	}
	order := rand.New(rand.NewSource(3)).Perm(h.NumVerts)
	matchProposal(h, order, mate, nil, defaultMatchingNetLimit, h.TotalWeight(), nil, nil)
	matched := 0
	for _, m := range mate {
		if m >= 0 {
			matched++
		}
	}
	if frac := float64(matched) / float64(h.NumVerts); frac < 0.5 {
		t.Errorf("proposal matching paired only %.0f%% of vertices", 100*frac)
	}
}

// TestBipartitionCapsPoolEquivalence verifies the full multilevel
// pipeline with cfg.Workers set: identical parts and cut for nil pool
// and any pool size, on both engine presets.
func TestBipartitionCapsPoolEquivalence(t *testing.T) {
	h := parmatchHypergraph(9, 800, 500, 6)
	for _, preset := range []struct {
		name string
		cfg  Config
	}{
		{"mondriaan", ConfigMondriaanLike()},
		{"alt", ConfigAlt()},
	} {
		cfg := preset.cfg
		cfg.Workers = 1
		maxW := balancedCaps(h.TotalWeight(), 0.05)
		refParts, refCut := BipartitionCapsPool(h, maxW, rand.New(rand.NewSource(13)), cfg, nil)
		for _, workers := range []int{1, 3, 8} {
			parts, cut := BipartitionCapsPool(h, maxW, rand.New(rand.NewSource(13)), cfg, pool.New(workers))
			if cut != refCut || !reflect.DeepEqual(parts, refParts) {
				t.Errorf("%s/workers=%d: pooled bipartition differs (cut %d vs %d)", preset.name, workers, cut, refCut)
			}
		}
	}
}

// TestConfigWorkersZeroKeepsLegacyMatching ensures the zero value stays
// on the historical greedy sweep, byte-for-byte.
func TestConfigWorkersZeroKeepsLegacyMatching(t *testing.T) {
	h := parmatchHypergraph(21, 500, 250, 5)
	cfg := ConfigMondriaanLike()
	run := func() ([]int32, []int32) {
		return match(h, rand.New(rand.NewSource(5)), cfg, h.TotalWeight(), nil, nil)
	}
	vmapA, labelA := run()
	vmapB, labelB := run()
	if !reflect.DeepEqual(labelA, labelB) || !reflect.DeepEqual(vmapA, vmapB) {
		t.Error("legacy matching is not deterministic for a fixed seed")
	}
}
