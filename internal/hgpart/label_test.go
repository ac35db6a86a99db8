package hgpart

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
)

// labelTestHypergraph builds a connected random hypergraph with small
// nets and vertex weights 1..3.
func labelTestHypergraph(seed int64, nv, nets int) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	wt := make([]int64, nv)
	for v := range wt {
		wt[v] = 1 + rng.Int63n(3)
	}
	b := hypergraph.NewBuilder(nv, wt)
	for v := 0; v+1 < nv; v += 2 {
		b.AddNetInts([]int{v, v + 1})
	}
	for n := 0; n < nets; n++ {
		sz := 2 + rng.Intn(7)
		seen := map[int]bool{}
		pins := make([]int, 0, sz)
		for len(pins) < sz {
			if v := rng.Intn(nv); !seen[v] {
				seen[v] = true
				pins = append(pins, v)
			}
		}
		b.AddNetInts(pins)
	}
	return b.Build()
}

// relabel returns h with logical vertex v stored at physical index
// sigma[v] — same nets in the same order, each pin list mapped through
// sigma — and Label = sigma.
func relabel(h *hypergraph.Hypergraph, sigma []int32) *hypergraph.Hypergraph {
	wt := make([]int64, h.NumVerts)
	for v, w := range h.VertWt {
		wt[sigma[v]] = w
	}
	netPtr := append([]int32(nil), h.NetPtr...)
	pins := make([]int32, len(h.Pins))
	for i, v := range h.Pins {
		pins[i] = sigma[v]
	}
	out := hypergraph.FromCSR(h.NumVerts, wt, netPtr, pins)
	out.Label = append([]int32(nil), sigma...)
	return out
}

// permuteParts maps logical parts onto the physical layout of relabel.
func permuteParts(parts []int, sigma []int32) []int {
	out := make([]int, len(parts))
	for v, p := range parts {
		out[sigma[v]] = p
	}
	return out
}

// TestLabelInvariance is the contract of locality-ordered levels: a
// hypergraph stored in any physical order whose Label records the
// logical order partitions exactly like the logically ordered one. For
// every preset and refinement mode, on the legacy and the parallel
// engine, with a nil pool and a pool of 4, the multilevel bipartitioner,
// FM refinement and V-cycle refinement of the relabelled hypergraph must
// return the σ-permuted parts of the original, with the same cut. The
// hypergraph spans both ParallelFM regimes (coarse racing and the fine
// speculative prepass).
func TestLabelInvariance(t *testing.T) {
	h := labelTestHypergraph(5, specMinVerts+900, 2600)
	sigma := make([]int32, h.NumVerts)
	for i, v := range rand.New(rand.NewSource(6)).Perm(h.NumVerts) {
		sigma[i] = int32(v)
	}
	hp := relabel(h, sigma)
	if err := hp.Validate(); err != nil {
		t.Fatal(err)
	}
	maxW := balancedCaps(h.TotalWeight(), 0.03)
	start := make([]int, h.NumVerts)
	for v, p := range rand.New(rand.NewSource(7)).Perm(h.NumVerts) {
		start[v] = p % 2
	}

	type mode struct {
		name string
		cfg  Config
	}
	var modes []mode
	for _, preset := range []mode{{"mondriaan", ConfigMondriaanLike()}, {"alt", ConfigAlt()}} {
		for _, workers := range []int{0, 4} {
			for _, fm := range []string{"default", "exactfm", "parallelfm"} {
				cfg := preset.cfg
				cfg.Workers = workers
				cfg.ExactFM = fm == "exactfm"
				cfg.ParallelFM = fm == "parallelfm"
				modes = append(modes, mode{fmt.Sprintf("%s/w%d/%s", preset.name, workers, fm), cfg})
			}
		}
	}
	check := func(t *testing.T, what string, want, got []int, wantCut, gotCut int64) {
		t.Helper()
		if gotCut != wantCut {
			t.Fatalf("%s: relabelled cut %d, original %d", what, gotCut, wantCut)
		}
		for v, p := range want {
			if got[sigma[v]] != p {
				t.Fatalf("%s: vertex %d (physical %d) in part %d, original %d", what, v, sigma[v], got[sigma[v]], p)
			}
		}
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for _, pl := range []*pool.Pool{nil, pool.New(4)} {
				ctx := context.Background()
				rngs := func() (*rand.Rand, *rand.Rand) {
					return rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
				}

				ra, rb := rngs()
				want, wantCut := BipartitionCapsPoolScratch(ctx, h, maxW, ra, m.cfg, pl, nil)
				got, gotCut := BipartitionCapsPoolScratch(ctx, hp, maxW, rb, m.cfg, pl, &Scratch{})
				check(t, fmt.Sprintf("bipartition pool=%d", pl.Workers()), want, got, wantCut, gotCut)

				ra, rb = rngs()
				want = append([]int(nil), start...)
				got = permuteParts(start, sigma)
				wantCut = RefineBipartitionCaps(h, want, maxW, ra, m.cfg)
				gotCut = RefineBipartitionCaps(hp, got, maxW, rb, m.cfg)
				check(t, "refine", want, got, wantCut, gotCut)

				ra, rb = rngs()
				want = append([]int(nil), start...)
				got = permuteParts(start, sigma)
				wantCut = VCycleRefinePool(ctx, h, want, maxW, ra, m.cfg, pl)
				gotCut = VCycleRefinePool(ctx, hp, got, maxW, rb, m.cfg, pl)
				check(t, fmt.Sprintf("vcycle pool=%d", pl.Workers()), want, got, wantCut, gotCut)
			}
		})
	}
}
