package hgpart

import (
	"context"
	"math/rand"
	"testing"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/hypergraph"
)

func benchHypergraph(b *testing.B) *hypergraph.Hypergraph {
	b.Helper()
	a := gen.PowerLawGraph(rand.New(rand.NewSource(1)), 2000, 4)
	return hypergraph.RowNet(a)
}

func BenchmarkBipartitionMondriaanLike(b *testing.B) {
	h := benchHypergraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bipartition(h, 0.03, rand.New(rand.NewSource(int64(i))), ConfigMondriaanLike())
	}
}

func BenchmarkBipartitionAlt(b *testing.B) {
	h := benchHypergraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bipartition(h, 0.03, rand.New(rand.NewSource(int64(i))), ConfigAlt())
	}
}

func BenchmarkFMPass(b *testing.B) {
	h := benchHypergraph(b)
	rng := rand.New(rand.NewSource(2))
	parts := make([]int, h.NumVerts)
	for v := range parts {
		parts[v] = v % 2
	}
	maxW := balancedCaps(h.TotalWeight(), 0.03)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newBipState(h, append([]int(nil), parts...), maxW)
		b.StartTimer()
		fmPass(context.Background(), s, rng, Config{}, nil, nil, false)
	}
}

func BenchmarkCoarsenOneLevel(b *testing.B) {
	h := benchHypergraph(b)
	rng := rand.New(rand.NewSource(3))
	cfg := ConfigMondriaanLike()
	maxClusterWt := balancedCaps(h.TotalWeight(), 0.03)[0] / 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vmap, label := match(h, rng, cfg, maxClusterWt, nil, nil)
		contract(h, vmap, label, cfg, nil, nil)
	}
}

// BenchmarkCoarsenOneLevelFG times the two halves of one coarsening
// step — matching (proposal rounds, inline) and contraction — on the
// fine-grain model of a 320×320 Laplacian (512k vertices) and on that
// model's first coarse level. The model itself is stored in matrix
// order; the coarse level is stored in whatever order coarsening
// numbers its vertices, so level1 shows what that layout costs the
// pin scans of the next level.
func BenchmarkCoarsenOneLevelFG(b *testing.B) {
	h := hypergraph.FineGrain(gen.Laplacian2D(320, 320))
	cfg := ConfigMondriaanLike()
	cfg.Workers = 1
	maxClusterWt := balancedCaps(h.TotalWeight(), 0.03)[0] / 3
	sc := &Scratch{}
	sc.reserve(h.NumVerts, h.NumNets)
	vmap, label := match(h, rand.New(rand.NewSource(1)), cfg, maxClusterWt, nil, sc)
	level1 := contract(h, vmap, label, cfg, nil, sc)
	for _, lv := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{{"level0", h}, {"level1", level1}} {
		b.Run(lv.name+"/match", func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < b.N; i++ {
				match(lv.h, rng, cfg, maxClusterWt, nil, sc)
			}
		})
		vmap, label := match(lv.h, rand.New(rand.NewSource(4)), cfg, maxClusterWt, nil, sc)
		b.Run(lv.name+"/contract", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				contract(lv.h, vmap, label, cfg, nil, sc)
			}
		})
	}
}

func BenchmarkVCycleRefine(b *testing.B) {
	h := benchHypergraph(b)
	maxW := balancedCaps(h.TotalWeight(), 0.03)
	base, _ := Bipartition(h, 0.03, rand.New(rand.NewSource(4)), ConfigMondriaanLike())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := append([]int(nil), base...)
		VCycleRefine(h, parts, maxW, rand.New(rand.NewSource(int64(i))), ConfigMondriaanLike())
	}
}
