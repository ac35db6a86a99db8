package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	mg "mediumgrain"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it; want an error")
	}
	got, err := percentile(seq(1000), 0.99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 (ten samples beyond)", got, err)
	}
	got, err = percentile(seq(21), 0.5)
	if err != nil || got != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", got, err)
	}
	if _, err := percentile(seq(20), 0.5); err != nil {
		t.Fatalf("p50 of 20 samples leaves 10 beyond rank 10: %v", err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond rank 10; want an error")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		// Reference values from Python's statistics.quantiles(xs, n=4).
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{0.5, 0.25, 0.75, 2, 1.5, 1}, 0.4375, 0.875, 1.625},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: quartiles %v %v median %v; want %v %v %v", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.med)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}

// testClasses returns n classes of size specs each, numbered from first.
func testClasses(first, n, size int) [][]int {
	classes := make([][]int, n)
	for c := range classes {
		for k := range size {
			classes[c] = append(classes[c], first+c*size+k)
		}
	}
	return classes
}

// testMix has 100 corpus specs in 10 classes and 20 inline specs in 2.
func testMix(seed int64) *mix {
	return newMix(rand.New(rand.NewSource(seed)), testClasses(0, 10, 10), testClasses(100, 2, 10), zipfS, inlineShare)
}

func TestMixRankingIsStratified(t *testing.T) {
	a, b := testMix(1), testMix(2)
	if slices.Equal(a.corpus, b.corpus) {
		t.Fatal("different seeds gave the same ranking")
	}
	for _, m := range []*mix{a, b} {
		sorted := slices.Sorted(slices.Values(m.corpus))
		for i, s := range sorted {
			if s != i {
				t.Fatalf("the ranking is not a permutation of the universe: %v", m.corpus)
			}
		}
		// Every block of ten consecutive ranks holds one spec of each class.
		for blk := 0; blk < len(m.corpus); blk += 10 {
			seen := make(map[int]bool)
			for _, s := range m.corpus[blk : blk+10] {
				seen[s/10] = true
			}
			if len(seen) != 10 {
				t.Fatalf("ranks %d..%d cover %d of 10 classes: %v", blk, blk+9, len(seen), m.corpus[blk:blk+10])
			}
		}
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	sched := func(seed int64) []arrival {
		return poisson(rand.New(rand.NewSource(seed)), testMix(seed), 100, 2000)
	}
	a, b, c := sched(7), sched(7), sched(8)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !slices.IsSortedFunc(a, func(x, y arrival) int { return int(x.At - y.At) }) {
		t.Fatal("arrivals are not in time order")
	}
	// 2000 arrivals at 100/s span about 20 s.
	if end := a[len(a)-1].At; end < 18*time.Second || end > 22*time.Second {
		t.Fatalf("2000 arrivals at 100/s end at %v", end)
	}
	inline := 0
	for _, x := range a {
		if x.Spec >= 100 {
			inline++
		}
	}
	if share := float64(inline) / float64(len(a)); share < 0.07 || share > 0.13 {
		t.Fatalf("inline share %.3f, want about %.2f", share, inlineShare)
	}
}

func TestZipfRanksAndTop(t *testing.T) {
	z := newZipf(50, zipfS)
	var sum float64
	for k := range 50 {
		sum += z.prob(k)
		if k > 0 && z.prob(k) >= z.prob(k-1) {
			t.Fatalf("rank %d is not less likely than rank %d", k, k-1)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	m := testMix(3)
	top := m.top(5)
	if len(top) != 5 || top[0] != m.corpus[0] {
		t.Fatalf("top(5) = %v, want the most popular corpus spec %d first", top, m.corpus[0])
	}
	if got := m.top(1000); len(got) != 120 {
		t.Fatalf("top beyond the universe returned %d specs, want all 120", len(got))
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "http.submit", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Name: "http.poll", Start: 2 * ms, End: 5 * ms},    // overlaps span 2
		{ID: 4, Parent: 1, Name: "http.result", Start: 8 * ms, End: 12 * ms}, // runs past the parent
		{ID: 5, Parent: 3, Name: "check", Start: 3 * ms, End: 4 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 4 * ms, 2: 2 * ms, 3: 2 * ms, 4: 4 * ms, 5: 1 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	if got := selfByName(spans, "request"); len(got) != 1 || got[0] != 4 {
		t.Errorf("selfByName(request) = %v, want [4]", got)
	}
	var nilTracer *tracer
	nilTracer.start("x", 0, 0).finish() // tracing off records nothing and must not panic
}

func TestSumVolumesAndPassTime(t *testing.T) {
	rs := []*mg.Result{{Volume: 5}, nil, {Volume: 7}}
	if got := sumVolumes(rs); got != 12 {
		t.Fatalf("sumVolumes = %d, want 12 (a failed call adds nothing)", got)
	}
	r := &libResult{Passes: []libPass{
		{Method: "MG", Calls: []float64{1, 10}},
		{Method: "FG", Calls: []float64{100, 100}},
		{Method: "MG", Calls: []float64{3, 20}},
		{Method: "MG", Calls: []float64{2, 90}},
	}}
	if got := r.passTime("MG"); got != 2+20 {
		t.Fatalf("passTime(MG) = %v, want the sum of per-call medians 22", got)
	}
}

func TestBacklogAt(t *testing.T) {
	ms := time.Millisecond
	samples := []sample{
		{Intended: 0, Latency: 5 * ms},         // done before the end
		{Intended: 8 * ms, Latency: 5 * ms},    // still running at 10 ms
		{Intended: 9 * ms, Latency: 30 * ms},   // still running
		{Intended: 10 * ms, Latency: 1 * ms},   // due at the end itself
		{Intended: 2 * ms, Latency: 7999 * ms}, // stuck
	}
	if got := backlogAt(samples, 10*ms); got != 3 {
		t.Fatalf("backlog %d, want 3", got)
	}
}

func TestCompareRule(t *testing.T) {
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10, 10.1, 9.9}
	better := make([]float64, len(parent))
	for i, p := range parent {
		better[i] = p - 1
	}
	if v := compareRule(parent, better, true); !v.Gain || v.Wins != 10 {
		t.Fatalf("a change 1.0 faster on every pair: %+v", v)
	}
	if v := compareRule(parent, better, false); v.Gain || v.Losses != 10 {
		t.Fatalf("for a higher-is-better metric the same change is a loss: %+v", v)
	}
	twoLosses := slices.Clone(better)
	twoLosses[0], twoLosses[1] = 11, 11
	if v := compareRule(parent, twoLosses, true); v.Gain {
		t.Fatalf("8 wins of 10 must not claim a gain: %+v", v)
	}
	small := make([]float64, len(parent))
	for i, p := range parent {
		small[i] = p - 0.01
	}
	if v := compareRule(parent, small, true); v.Gain {
		t.Fatalf("a gap inside the parent's IQR must not claim a gain: %+v", v)
	}
	if v := compareRule(parent[:9], better[:9], true); v.Gain {
		t.Fatalf("nine pairs must not claim a gain: %+v", v)
	}

	runs := func(failed ...int) []result {
		var out []result
		for _, f := range failed {
			out = append(out, result{Correct: true, Failed: f})
		}
		return out
	}
	base := runs(3, 4, 3, 5, 4, 3, 4, 4, 3, 4)
	if veto := outcomeVeto(base, runs(4, 3, 4, 3, 4, 4, 3, 4, 3, 3)); veto != "" {
		t.Fatalf("the same median of failures must not veto a gain: %s", veto)
	}
	if veto := outcomeVeto(base, runs(5, 6, 5, 5, 6, 5, 5, 6, 5, 5)); veto == "" {
		t.Fatal("a change failing more operations than its parent must veto every gain")
	}
	wrong := runs(3, 4, 3, 5, 4, 3, 4, 4, 3, 4)
	wrong[7].Correct = false
	if veto := outcomeVeto(base, wrong); veto == "" {
		t.Fatal("an incorrect change run must veto every gain")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// code emits in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the code has %d", names, len(workloads))
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, code map[string]string) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code emits %d", kind, len(listed), len(code))
		}
		for _, m := range listed {
			if unit, ok := code[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] is not emitted with that unit (code: %q)", kind, m.Name, m.Unit, unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayer)
	if bs, err := readSpec(".."); err != nil || bs.RunSeconds <= 0 || bs.Better["setup_s"] != "lower" {
		t.Errorf("compare reads BENCHMARK.json as %+v, %v", bs, err)
	}
}
