package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// perLayer lists the traced run's metrics with their units; BENCHMARK.json
// names the same set.
var perLayer = map[string]string{
	"core.split.ms": "ms", "core.bmodel.ms": "ms", "core.bmodel.pins": "count", "core.bmodel.alloc_mb": "MB",
	"core.project.ms": "ms", "core.recurse.ms": "ms",
	"hypergraph.model.ms": "ms", "hypergraph.model.pins": "count",
	"hgpart.bisect.ms": "ms", "hgpart.bisect.alloc_mb": "MB", "hgpart.fm.ms": "ms", "hgpart.fm.cut_ratio": "ratio",
	"metrics.volume.ms": "ms", "metrics.check.ms": "ms",
	"runtime.gc_pause_ms": "ms", "runtime.gc_cycles": "count", "runtime.alloc_mb": "MB",
	"http.submit_hit.ms": "ms", "http.submit_miss.ms": "ms", "http.poll.count": "count",
	"http.result.ms": "ms", "http.result.kb": "KB",
	"service.queue.ms": "ms", "service.run.ms": "ms", "service.cache.hit_ratio": "ratio",
	"service.dedup": "count", "service.rejected": "count",
	"sparse.parse.ms": "ms", "service.hash.ms": "ms", "distio.write.ms": "ms",
	"cluster.router.hop_ms": "ms", "cluster.forwarded": "count", "cluster.retries": "count",
	"cluster.peer_fetch_ok": "count", "cluster.replicated_out": "count",
	"serve_miss_p50_ms": "ms", "serve_p99_ms": "ms", "serve_hit_p99_ms": "ms", "load.late_p99_ms": "ms", "load.sent": "count", "load.done": "count", "load.backlog_end": "count",
	"check.mg_unbalanced": "count", "check.fg_unbalanced": "count", "check.lb_overloaded": "count",
	"library.pass_self_ms": "ms", "load.request_self_ms": "ms",
	"trace.spans": "count", "trace.overhead_library_ms": "ms", "trace.overhead_serve_ms": "ms",
}

// hopSpecs and hopRounds size the router-hop probe: cache hits on the
// most popular specs, alternating the routed and the direct path.
const (
	hopSpecs  = 32
	hopRounds = 200
)

// traced is the per-layer run. The untraced measurement has already
// run; it measures again with spans on, on a fresh engine and server, so
// the difference is the tracing overhead. Then it times each layer's
// entry points from outside and writes the spans under the work
// directory.
func traced(ctx context.Context, o options, st *setup, lib *libResult, load loadResult, tl *tally) (map[string]float64, string, error) {
	tr := newTracer()
	out := make(map[string]float64)
	nproc := st.nproc

	// The check counts are the untraced measurement's; the traced one
	// still adds its operations to the run's attempted and failed.
	out["check.mg_unbalanced"] = float64(tl.Unbalanced["MG"])
	out["check.fg_unbalanced"] = float64(tl.Unbalanced["FG"])
	out["check.lb_overloaded"] = float64(tl.LBOverloaded)

	if err := st.restart(o.seed); err != nil {
		return nil, "", err
	}
	libT, loadT, err := measure(ctx, st, tr, tl)
	if err != nil {
		return nil, "", err
	}
	checkServed(loadT, tl)
	var pause, cycles, alloc []float64
	for _, p := range libT.Passes {
		pause, cycles, alloc = append(pause, p.GCPauseMS), append(cycles, float64(p.GCCycles)), append(alloc, p.AllocMB)
	}
	out["runtime.gc_pause_ms"], out["runtime.gc_cycles"], out["runtime.alloc_mb"] = median(pause), median(cycles), median(alloc)
	for _, m := range methods {
		out["trace.overhead_library_ms"] += 1000 * (libT.passTime(m.String()) - lib.passTime(m.String()))
	}
	all := func(sample) bool { return true }
	out["trace.overhead_serve_ms"] = median(latencies(loadT.Samples, all)) - median(latencies(load.Samples, all))
	serviceLayers(out, loadT)
	loadLayers(out, load)

	probe, err := probeLayers(ctx, st.eng, st.items, nproc, st.data, tr)
	if err != nil {
		return nil, "", err
	}
	for k, v := range probe {
		out[k] = v
	}

	// The router hop and the cluster counters come from a small probe
	// cluster: two shards behind a router, warmed with the most popular
	// specs, then hit alternately through the router and directly.
	cl, err := startTopology(st.in, o.seed, true, nproc, st.data)
	if err != nil {
		return nil, "", err
	}
	defer cl.close()
	before := cl.counters()
	hc := loadClient(nproc)
	warmUp(hc, cl.base, st.in, st.in.mix.top(hopSpecs), nproc)
	hc.CloseIdleConnections()
	hop, err := hopProbe(cl, st.in, st.in.mix.top(hopSpecs), hopRounds)
	if err != nil {
		return nil, "", err
	}
	c := cl.counters().minus(before)
	out["cluster.router.hop_ms"] = hop
	out["cluster.forwarded"], out["cluster.retries"] = float64(c.Forwarded), float64(c.Retries)
	out["cluster.peer_fetch_ok"], out["cluster.replicated_out"] = float64(c.PeerFetchOK), float64(c.ReplicatedOut)

	spans := tr.snapshot()
	out["trace.spans"] = float64(len(spans))
	out["library.pass_self_ms"] = median(selfByName(spans, "library.pass"))
	out["load.request_self_ms"] = median(selfByName(spans, "request"))
	dir := filepath.Join(o.work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", o.workload, o.seed, time.Now().UnixNano()))
	if err := writeSpans(file, spans); err != nil {
		return nil, "", err
	}
	for name := range perLayer {
		if _, ok := out[name]; !ok {
			return nil, "", fmt.Errorf("traced run did not measure %s", name)
		}
	}
	return out, file, nil
}

// serviceLayers derives the HTTP and service metrics of a serve phase
// from its requests and the servers' counters.
func serviceLayers(out map[string]float64, load loadResult) {
	var hitSubmit, missSubmit, result, kb, queue, runMS []float64
	polls, misses := 0, 0
	for _, s := range load.Samples {
		if !s.OK {
			continue
		}
		result, kb = append(result, s.ResultMS), append(kb, s.ResultKB)
		if s.Cached {
			hitSubmit = append(hitSubmit, s.SubmitMS)
			continue
		}
		misses++
		polls += s.Polls
		missSubmit, queue, runMS = append(missSubmit, s.SubmitMS), append(queue, s.QueueMS), append(runMS, s.RunMS)
	}
	out["http.submit_hit.ms"], out["http.submit_miss.ms"] = median(hitSubmit), median(missSubmit)
	out["http.poll.count"] = float64(polls) / float64(max(misses, 1))
	out["http.result.ms"], out["http.result.kb"] = median(result), mean(kb)
	out["service.queue.ms"], out["service.run.ms"] = median(queue), median(runMS)
	c := load.After.minus(load.Before)
	out["service.cache.hit_ratio"] = float64(c.Hits) / float64(max(c.Hits+c.Misses, 1))
	out["service.dedup"], out["service.rejected"] = float64(c.Dedup), float64(c.Rejected)
}

// loadLayers reports how well the generator kept to its schedule.
func loadLayers(out map[string]float64, load loadResult) {
	var late []float64
	done := 0
	for _, s := range load.Samples {
		late = append(late, ms(s.Late))
		if s.OK {
			done++
		}
	}
	p99, err := percentile(late, 0.99)
	if err != nil {
		p99 = maxOf(late) // too few requests for a p99: report the worst
	}
	out["load.late_p99_ms"] = p99
	all := latencies(load.Samples, func(sample) bool { return true })
	if out["serve_p99_ms"], err = percentile(all, 0.99); err != nil {
		out["serve_p99_ms"] = maxOf(all)
	}
	hits := latencies(load.Samples, func(s sample) bool { return s.OK && s.Cached })
	if out["serve_hit_p99_ms"], err = percentile(hits, 0.99); err != nil {
		out["serve_hit_p99_ms"] = maxOf(hits)
	}
	out["serve_miss_p50_ms"] = median(latencies(load.Samples, func(s sample) bool { return s.OK && !s.Cached }))
	out["load.sent"], out["load.done"] = float64(load.Sent), float64(done)
	out["load.backlog_end"] = float64(load.Backlog)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
