package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	mg "mediumgrain"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

// balanceEps is the paper's ε, the bound CheckBalance enforces.
const balanceEps = 0.03

var methods = []mg.Method{mg.MethodMediumGrain, mg.MethodFineGrain, mg.MethodLocalBest}

// partSeeds are the partitioning seeds of the library rounds, the same
// in every run: round k partitions with partSeeds[k%2]. The partitioner
// takes a different path with every seed: lap2d-450, the same matrix in
// every run, took 0.53 to 0.73 s for its MG bisection as the seed went
// with the run seed. Fixing them leaves the run seed to pick the
// matrices and the serve schedule. Over four rounds every call runs
// twice with each seed, and the repeat is checked bit for bit against
// the first.
var partSeeds = []int64{1, 2}

// libItem is one matrix of a library pass, cut into P parts.
type libItem struct {
	Name string
	A    *sparse.Matrix
	P    int
}

// corpusItems is corpus-recursive's set: the 30 corpus instances at
// scale 1 plus lap2d-120, each cut into 64 parts.
func corpusItems(seed int64) []libItem {
	var items []libItem
	for _, in := range corpus.Build(corpus.Options{Scale: 1, Seed: seed}) {
		items = append(items, libItem{Name: in.Name, A: in.A, P: 64})
	}
	return append(items, libItem{Name: "lap2d-120", A: gen.Laplacian2D(120, 120), P: 64})
}

// largeItems is large-bisect's set: three matrices far larger than L2,
// bisected once.
func largeItems(seed int64) []libItem {
	rng := rand.New(rand.NewSource(seed))
	return []libItem{
		{Name: "lap2d-450", A: gen.Laplacian2D(450, 450), P: 2},
		{Name: "powerlaw-10000", A: gen.PowerLawGraph(rng, 10000, 5), P: 2},
		{Name: "bipartite-20000x6000", A: gen.RandomBipartite(rng, 20000, 6000, 6), P: 2},
	}
}

// tally counts operations and check outcomes. An operation is one
// partition call or one service request; it fails when any of its
// checks fails, and the run goes on.
type tally struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Incorrect counts failed operations whose output broke a result
	// contract: invalid parts, a reported volume that differs from the
	// recomputed one, parts that differ from the run's first pass or
	// from the offline engine, or an engine error.
	Incorrect int `json:"incorrect"`
	// Unbalanced counts MG and FG results over the eqn (1) bound
	// (failed operations); LBOverloaded counts LB results over it, which
	// no contract covers, so they are not failures.
	Unbalanced   map[string]int `json:"unbalanced"`
	LBOverloaded int            `json:"lb_overloaded"`
	// ServeErrors counts requests refused, failed server-side or timed
	// out.
	ServeErrors int      `json:"serve_errors"`
	Examples    []string `json:"examples,omitempty"`
}

func newTally() *tally { return &tally{Unbalanced: make(map[string]int)} }

func (t *tally) fail(incorrect bool, why string) {
	t.Failed++
	if incorrect {
		t.Incorrect++
	}
	if len(t.Examples) < 8 {
		t.Examples = append(t.Examples, why)
	}
}

// libPass is one method's pass over the item set.
type libPass struct {
	Method  string    `json:"method"`
	Seed    int64     `json:"seed"` // partitioning seed of every call
	Seconds float64   `json:"seconds"`
	Calls   []float64 `json:"calls_s"` // each item's partition time
	// GC activity during the pass (traced runs only).
	GCPauseMS float64 `json:"gc_pause_ms,omitempty"`
	GCCycles  uint32  `json:"gc_cycles,omitempty"`
	AllocMB   float64 `json:"alloc_mb,omitempty"`
}

// libResult is a library phase: every pass and the per-method volume,
// summed over items and partitioning seeds, plus each method and seed's
// first-pass parts digests that its repeat compares against.
type libResult struct {
	WarmUpS float64          `json:"warm_up_s"` // the serve cache warm-up before the rounds
	Passes  []libPass        `json:"passes"`
	Volume  map[string]int64 `json:"volume"`
	first   map[string][]uint64
}

// passTime estimates one pass of method over the set: the sum over
// items of each item's median call time across the run's passes, both
// seeds together (with four rounds, the mean of the middle two). Taking
// medians per call, rather than of whole passes, keeps a burst of host
// noise from moving more than the calls it overlapped.
func (r *libResult) passTime(method string) float64 {
	var calls [][]float64 // calls[item][pass]
	for _, p := range r.Passes {
		if p.Method != method {
			continue
		}
		for i, c := range p.Calls {
			if i == len(calls) {
				calls = append(calls, nil)
			}
			calls[i] = append(calls[i], c)
		}
	}
	var sum float64
	for _, c := range calls {
		sum += median(c)
	}
	return sum
}

// sumVolumes adds up the reported volumes of one pass.
func sumVolumes(results []*mg.Result) int64 {
	var v int64
	for _, r := range results {
		if r != nil {
			v += r.Volume
		}
	}
	return v
}

func newLibResult() *libResult {
	return &libResult{Volume: make(map[string]int64), first: make(map[string][]uint64)}
}

// round runs one pass of each method over items with the round's
// partitioning seed, rotating which method goes first from round to
// round. A forced garbage collection before each pass starts every pass
// from the same heap, so one pass's garbage neither slows the next nor
// moves the peak RSS. Only the partition
// calls are timed; every result is checked after its pass.
func (res *libResult) round(ctx context.Context, eng *mg.Engine, items []libItem, round int, tr *tracer, tl *tally) error {
	seed := partSeeds[round%len(partSeeds)]
	for k := range methods {
		m := methods[(round+k)%len(methods)]
		key := fmt.Sprintf("%s/%d", m, seed)
		runtime.GC()
		var before, after runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		sp := tr.start("library.pass", 0, 0)
		results := make([]*mg.Result, len(items))
		errs := make([]error, len(items))
		pass := libPass{Method: m.String(), Seed: seed, Calls: make([]float64, len(items))}
		t0 := time.Now()
		for i, it := range items {
			c := tr.start("engine.partition", sp.id(), 0)
			t := time.Now()
			results[i], errs[i] = eng.Partition(ctx, mg.Request{Matrix: it.A, P: it.P, Method: m, Seed: seed})
			pass.Calls[i] = time.Since(t).Seconds()
			c.finish()
		}
		pass.Seconds = time.Since(t0).Seconds()
		sp.finish()
		if tr != nil {
			runtime.ReadMemStats(&after)
			pass.GCPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
			pass.GCCycles = after.NumGC - before.NumGC
			pass.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		res.Passes = append(res.Passes, pass)
		digests := make([]uint64, len(items))
		for i, it := range items {
			digests[i] = checkPartition(it, m, seed, results[i], errs[i], res.first[key], i, tr, tl)
		}
		if _, seen := res.first[key]; !seen {
			res.first[key] = digests
			res.Volume[m.String()] += sumVolumes(results)
		}
	}
	return nil
}

// checkPartition checks one library result and returns its parts
// digest. first holds the digests of the first pass with the same method
// and seed (nil during that pass).
func checkPartition(it libItem, m mg.Method, seed int64, r *mg.Result, err error, first []uint64, i int, tr *tracer, tl *tally) uint64 {
	tl.Attempted++
	what := fmt.Sprintf("%s %s p=%d seed=%d", m, it.Name, it.P, seed)
	if err != nil {
		tl.fail(true, what+": "+err.Error())
		return 0
	}
	sp := tr.start("metrics.check", 0, 0)
	verr := metrics.ValidateParts(it.A, r.Parts, it.P)
	berr := metrics.CheckBalance(r.Parts, it.P, balanceEps)
	sp.finish()
	if verr != nil {
		tl.fail(true, what+": "+verr.Error())
		return 0
	}
	sp = tr.start("metrics.volume", 0, 0)
	vol := metrics.Volume(it.A, r.Parts, it.P)
	sp.finish()
	digest := hashParts(r.Parts)
	switch {
	case vol != r.Volume:
		tl.fail(true, fmt.Sprintf("%s: reported volume %d, recomputed %d", what, r.Volume, vol))
	case first != nil && first[i] != digest:
		tl.fail(true, what+": parts differ from the run's first pass")
	case berr != nil && m == mg.MethodLocalBest:
		tl.LBOverloaded++
	case berr != nil:
		tl.Unbalanced[m.String()]++
		tl.fail(false, what+": "+berr.Error())
	}
	return digest
}
