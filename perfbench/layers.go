package main

import (
	"context"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	mg "mediumgrain"
	"mediumgrain/internal/core"
	"mediumgrain/internal/distio"
	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/pool"
	"mediumgrain/internal/service"
	"mediumgrain/internal/sparse"
)

// timed runs f inside a span and returns its wall time in ms.
func timed(tr *tracer, name string, f func()) float64 {
	sp := tr.start(name, 0, 0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.finish()
	return ms(d)
}

// allocMB runs f and returns the MiB it allocated. ReadMemStats stops
// the world, so it stays outside any timed region.
func allocMB(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// topCaps are the weight caps of the first bisection of a p-way
// recursive partitioning: the engine spreads ε over ⌈log2 p⌉ levels.
func topCaps(nnz, p int) [2]int64 {
	levels := max(1, int(math.Ceil(math.Log2(float64(p)))))
	delta := math.Pow(1+balanceEps, 1/float64(levels)) - 1
	c := max(int64((1+delta)*0.5*float64(nnz)), int64((nnz+1)/2))
	return [2]int64{c, c}
}

// randomFeasible assigns vertices, in a seeded random order, to a
// random side that still has room under caps.
func randomFeasible(h *hypergraph.Hypergraph, caps [2]int64, rng *rand.Rand) []int {
	parts := make([]int, h.NumVerts)
	var w [2]int64
	for _, v := range rng.Perm(h.NumVerts) {
		side := rng.Intn(2)
		if w[side]+h.VertWt[v] > caps[side] {
			side = 1 - side
		}
		parts[v] = side
		w[side] += h.VertWt[v]
	}
	return parts
}

// probeLayers times each layer's public entry point from outside, once
// per item, on the top-level (first bisection) problem of the item, and
// returns the per-layer totals over the item set.
func probeLayers(ctx context.Context, eng *mg.Engine, items []libItem, nproc int, work string, tr *tracer) (map[string]float64, error) {
	cfg := hgpart.ConfigMondriaanLike()
	cfg.Workers = nproc
	pl := pool.New(nproc)
	dir, err := os.MkdirTemp(work, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	out := make(map[string]float64)
	var cutBefore, cutAfter int64
	for _, it := range items {
		a := it.A
		rng := rand.New(rand.NewSource(partSeeds[0]))
		caps := topCaps(a.NNZ(), it.P)

		var inRow []bool
		out["core.split.ms"] += timed(tr, "core.split", func() { inRow = core.Split(a, core.SplitNNZ, rng) })
		var bm *core.BModel
		out["core.bmodel.alloc_mb"] += allocMB(func() {
			out["core.bmodel.ms"] += timed(tr, "core.bmodel", func() { bm, err = core.BuildBModel(a, inRow) })
		})
		if err != nil {
			return nil, err
		}
		out["core.bmodel.pins"] += float64(bm.H.NumPins())

		var vparts []int
		out["hgpart.bisect.alloc_mb"] += allocMB(func() {
			out["hgpart.bisect.ms"] += timed(tr, "hgpart.bisect", func() { vparts, _ = hgpart.BipartitionCapsPool(bm.H, caps, rng, cfg, pl) })
		})
		var parts []int
		out["core.project.ms"] += timed(tr, "core.project", func() { parts = bm.NonzeroParts(vparts) })

		start := randomFeasible(bm.H, caps, rng)
		cutBefore += bm.H.CutNets(start)
		out["hgpart.fm.ms"] += timed(tr, "hgpart.fm", func() { hgpart.RefineBipartitionCaps(bm.H, start, caps, rng, cfg) })
		cutAfter += bm.H.CutNets(start)

		out["hypergraph.model.ms"] += timed(tr, "hypergraph.model", func() {
			out["hypergraph.model.pins"] += float64(hypergraph.FineGrain(a).NumPins() +
				hypergraph.RowNet(a).NumPins() + hypergraph.ColNet(a).NumPins())
		})
		out["metrics.volume.ms"] += timed(tr, "metrics.volume", func() { metrics.Volume(a, parts, 2) })
		out["metrics.check.ms"] += timed(tr, "metrics.check", func() {
			_ = metrics.ValidateParts(a, parts, 2)
			_ = metrics.CheckBalance(parts, 2, balanceEps)
		})

		// Recursion overhead: the full p-way partitioning minus its first
		// bisection, both through the engine.
		var errP, err2 error
		full := timed(tr, "engine.partition", func() {
			_, errP = eng.Partition(ctx, mg.Request{Matrix: a, P: it.P, Method: mg.MethodMediumGrain, Seed: partSeeds[0]})
		})
		bisect := timed(tr, "engine.partition", func() {
			_, err2 = eng.Partition(ctx, mg.Request{Matrix: a, P: 2, Method: mg.MethodMediumGrain, Seed: partSeeds[0]})
		})
		if errP != nil || err2 != nil {
			return nil, firstErr(errP, err2)
		}
		out["core.recurse.ms"] += full - bisect

		// The service's upload, content-address and persist paths.
		var mm strings.Builder
		if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
			return nil, err
		}
		text := mm.String()
		var perr error
		out["sparse.parse.ms"] += timed(tr, "sparse.parse", func() { _, perr = sparse.ParseMatrixMarketString(text) })
		out["service.hash.ms"] += timed(tr, "service.hash", func() { service.MatrixHash(a) })
		b, berr := distio.NewBundle(a, parts, 2, nil)
		if perr != nil || berr != nil {
			return nil, firstErr(perr, berr)
		}
		var werr error
		out["distio.write.ms"] += timed(tr, "distio.write", func() { werr = distio.Write(dir, it.Name, b) })
		if werr != nil {
			return nil, werr
		}
	}
	out["hgpart.fm.cut_ratio"] = float64(cutAfter) / float64(max(cutBefore, 1))
	return out, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
