// Command perfbench is the repository's benchmark. One invocation runs
// one workload with one seed and prints, as its last line, a JSON
// object with the keys correct, attempted, failed and metrics. Without
// --trace it reports the end-to-end metrics; with --trace 1 it reports
// the per-layer metrics of a traced run instead. See README.md.
//
// Run it through run.py, which builds it from source:
//
//	python3 perfbench/run.py --workload corpus-recursive --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	mg "mediumgrain"
)

// workload is one benchmark input set. Every run measures both user
// views of the system, so every run reports every end-to-end metric:
// library rounds (one MG, one FG and one LB pass of Engine.Partition
// over the workload's items) interleaved with slices of the serve
// schedule (the open-loop request mix against an in-process server).
type workload struct {
	name  string
	items func(seed int64) []libItem
}

var workloads = []workload{
	{name: "corpus-recursive", items: corpusItems},
	{name: "large-bisect", items: largeItems},
}

// serveShare is the part of the measured seconds given to the serve
// schedule: it holds serveRate × serveShare × seconds arrivals, 1400 at
// the pinned 40 s. The four library rounds take 19 s (corpus-recursive)
// to 30 s (large-bisect) on a 2-vCPU host.
const serveShare = 0.5

// rounds is the number of library rounds, and of serve slices they
// alternate with, in a run: every call runs twice with each of the two
// partitioning seeds, and its time is the median of the four.
const rounds = 4

// setupReps is how often a run builds its set-up; setup_s is the median.
const setupReps = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	work     string
	commit   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: same seed, same inputs")
	flag.Float64Var(&o.seconds, "seconds", 40, "measured seconds of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for scratch files, spans and result records")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision recorded with the result")
	flag.Parse()
	o.trace = traceFlag != 0
	res, rec, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	path, err := saveRecord(o, rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(rec.Env)
	fmt.Printf("perfbench: %s seed %d: raw values in %s\nperfbench: env %s\n", o.workload, o.seed, path, env)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything a run measured, written beside the result so a
// later comparison can see the raw values and where they came from.
type record struct {
	Workload  string       `json:"workload"`
	Seed      int64        `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Trace     bool         `json:"trace"`
	Started   time.Time    `json:"started"`
	Env       environment  `json:"env"`
	SetupS    []float64    `json:"setup_s"`
	Library   *libResult   `json:"library"`
	Serve     serveSummary `json:"serve"`
	Checks    *tally       `json:"checks"`
	Result    result       `json:"result"`
	SpansFile string       `json:"spans_file,omitempty"`
}

// serveSummary keeps the serve phase's raw per-request values.
type serveSummary struct {
	Rate     float64  `json:"rate"`
	Sent     int      `json:"sent"`
	Backlog  int      `json:"backlog"`
	Counters counters `json:"counters"`
	Requests []sample `json:"requests"`
}

// saveRecord writes the run's record under the work directory and
// returns its path.
func saveRecord(o options, rec record) (string, error) {
	dir := filepath.Join(o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v-%d.json", o.workload, o.seed, o.trace, time.Now().UnixNano()))
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// setup is a run's inputs and running servers.
type setup struct {
	in     *serveInputs
	sched  []arrival
	sample []int // spec indices verified against the offline engine
	items  []libItem
	eng    *mg.Engine
	topo   *topology
	nproc  int
	data   string // where servers persist
}

// newSetup generates the inputs from the seed and starts the engine and
// the server; it returns once the server is listening.
func newSetup(w workload, o options, nproc int) (*setup, error) {
	in, err := newServeInputs(o.seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed + 1))
	n := int(serveRate * serveShare * o.seconds)
	st := &setup{in: in, sched: poisson(rng, in.mix, serveRate, n), items: w.items(o.seed), nproc: nproc}
	st.sample = sampleSpecs(rng, st.sched, verifySample)
	st.eng = mg.New(mg.EngineConfig{Workers: nproc})
	if st.data, err = newDataRoot(o.work); err != nil {
		return nil, err
	}
	st.topo, err = startTopology(in, o.seed, false, nproc, st.data)
	return st, err
}

// restart replaces the engine and the server with fresh ones on the same
// inputs, so a second measurement starts from the state the first one
// started from.
func (st *setup) restart(seed int64) error {
	topo, err := startTopology(st.in, seed, false, st.nproc, st.data)
	if err != nil {
		return err
	}
	st.topo.close()
	st.topo, st.eng = topo, mg.New(mg.EngineConfig{Workers: st.nproc})
	return nil
}

// measure is the timed part of a run. It fills the server's cache with
// the most popular specs (untimed), then alternates library rounds with
// equal slices of the serve schedule, so both halves sample the host
// over the whole run rather than one half each.
func measure(ctx context.Context, st *setup, tr *tracer, tl *tally) (*libResult, loadResult, error) {
	var load loadResult
	client := loadClient(st.nproc)
	defer client.CloseIdleConnections()
	t0 := time.Now()
	warmUp(client, st.topo.base, st.in, st.in.mix.top(cacheEntries), st.nproc)
	lib := newLibResult()
	lib.WarmUpS = time.Since(t0).Seconds()
	for k, slice := range chunks(st.sched, rounds) {
		if err := lib.round(ctx, st.eng, st.items, k, tr, tl); err != nil {
			return nil, load, err
		}
		load.add(runOpenLoop(client, st.topo, st.in, slice, tr))
	}
	return lib, load, nil
}

// run executes one benchmark run.
func run(o options) (result, record, error) {
	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Started: time.Now()}
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, rec, err
	}
	if o.seconds <= 0 {
		return result{}, rec, fmt.Errorf("--seconds must be positive")
	}
	rec.Env = describeEnvironment(o.root, o.commit)
	rec.Serve.Rate = serveRate

	var st *setup
	for range setupReps {
		if st != nil {
			st.topo.close()
		}
		t0 := time.Now()
		st, err = newSetup(w, o, runtime.NumCPU())
		if err != nil {
			return result{}, rec, fmt.Errorf("setup: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}
	defer func() { st.topo.close() }()

	ctx := context.Background()
	tl := newTally()
	rec.Checks = tl
	lib, load, err := measure(ctx, st, nil, tl)
	if err != nil {
		return result{}, rec, err
	}
	rec.Library = lib
	rec.Serve.Sent, rec.Serve.Backlog, rec.Serve.Requests = load.Sent, load.Backlog, load.Samples
	rec.Serve.Counters = load.After.minus(load.Before)
	served := checkServed(load, tl)
	if err := verifyOffline(ctx, st, served, tl); err != nil {
		return result{}, rec, err
	}

	metrics := make(map[string]metric)
	want := endToEndUnits
	if !o.trace {
		endToEnd(metrics, rec.SetupS, lib, load)
	} else {
		want = perLayer
		var layers map[string]float64
		layers, rec.SpansFile, err = traced(ctx, o, st, lib, load, tl)
		for name, v := range layers {
			metrics[name] = metric{v, perLayer[name]}
		}
	}
	if err != nil {
		return result{}, rec, err
	}
	for name, unit := range want {
		m, ok := metrics[name]
		switch {
		case !ok || m.Unit != unit:
			return result{}, rec, fmt.Errorf("metric %s was not measured", name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return result{}, rec, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	rec.Result = result{Correct: tl.Incorrect == 0, Attempted: tl.Attempted, Failed: tl.Failed, Metrics: metrics}
	return rec.Result, rec, nil
}

// backlogAt counts requests due before end that had not completed by
// then.
func backlogAt(samples []sample, end time.Duration) int {
	n := 0
	for _, s := range samples {
		if s.Intended < end && s.Intended+s.Latency > end {
			n++
		}
	}
	return n
}

// checkServed counts every request as an operation: refused, failed and
// timed-out requests fail, and so do results that break a check or
// differ from another serving of the same spec. It returns each spec's
// served parts digest.
func checkServed(load loadResult, tl *tally) map[int]uint64 {
	served := make(map[int]uint64)
	for _, s := range load.Samples {
		tl.Attempted++
		switch {
		case !s.OK:
			tl.ServeErrors++
			tl.fail(false, "request: "+s.Err)
		case s.Incorrect:
			tl.fail(true, "served result: "+s.Err)
		default:
			if d, ok := served[s.Spec]; ok && d != s.parts {
				tl.fail(true, fmt.Sprintf("spec %d served with two different parts vectors", s.Spec))
				continue
			}
			served[s.Spec] = s.parts
		}
	}
	return served
}

// verifyOffline recomputes the sampled specs with the library engine;
// each served result must match bit for bit. A sampled spec that was
// never served successfully has already failed as a request.
func verifyOffline(ctx context.Context, st *setup, served map[int]uint64, tl *tally) error {
	for _, i := range st.sample {
		got, ok := served[i]
		if !ok {
			continue
		}
		s := st.in.specs[i]
		r, err := st.eng.Partition(ctx, mg.Request{Matrix: st.in.matrix(s), P: s.P, Method: mg.MethodMediumGrain, Seed: s.Seed})
		tl.Attempted++
		switch {
		case err != nil:
			tl.fail(true, "offline: "+err.Error())
		case hashParts(r.Parts) != got:
			tl.fail(true, fmt.Sprintf("served parts of %s p=%d seed=%d differ from the offline engine", st.in.name(s), s.P, s.Seed))
		}
	}
	return ctx.Err()
}

// latencies returns the latency, in ms, of the samples that pass keep;
// a failed request counts at the request timeout, so failures can only
// raise the percentiles.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if !keep(s) {
			continue
		}
		if s.OK {
			out = append(out, ms(s.Latency))
		} else {
			out = append(out, ms(requestTimeout))
		}
	}
	return out
}

// endToEndUnits lists the end-to-end metrics with their units;
// BENCHMARK.json names the same set.
var endToEndUnits = map[string]string{
	"setup_s": "s", "peak_rss_mb": "MB",
	"mg_time_s": "s", "fg_time_s": "s", "lb_time_s": "s",
	"mg_volume": "words", "fg_volume": "words", "lb_volume": "words",
	"serve_p50_ms": "ms", "serve_hit_p50_ms": "ms",
}

// endToEnd fills the end-to-end metrics.
func endToEnd(out map[string]metric, setupS []float64, lib *libResult, load loadResult) {
	out["setup_s"] = metric{median(setupS), "s"}
	out["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	for _, m := range methods {
		name := map[mg.Method]string{mg.MethodMediumGrain: "mg", mg.MethodFineGrain: "fg", mg.MethodLocalBest: "lb"}[m]
		out[name+"_time_s"] = metric{lib.passTime(m.String()), "s"}
		out[name+"_volume"] = metric{float64(lib.Volume[m.String()]), "words"}
	}
	out["serve_p50_ms"] = metric{median(latencies(load.Samples, func(sample) bool { return true })), "ms"}
	out["serve_hit_p50_ms"] = metric{median(latencies(load.Samples, func(s sample) bool { return s.OK && s.Cached })), "ms"}
}
