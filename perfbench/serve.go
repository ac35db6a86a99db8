package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"mediumgrain/internal/cluster"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/service"
	"mediumgrain/internal/sparse"
)

// The serve mix: Zipf(0.9) over corpus names × p × seeds, a tenth of
// the submissions uploading one of a few generated matrices inline, all
// medium-grain, sent open loop at serveRate. The node keeps
// cacheEntries results, so about three quarters of the requests hit and
// the median latency sits inside the hit mode instead of on the edge
// between hits and misses (with the default 256 entries about half
// hit). It runs the service's default number of concurrent jobs
// (Runners); two heavy misses computing at once delay cache hits by tens
// of milliseconds, and at 70 req/s that stays in the tail of the
// latencies (serve_hit_p99_ms) instead of moving the medians.
const (
	serveRate      = 70.0 // requests per second
	zipfS          = 0.9
	inlineShare    = 0.1
	specSeeds      = 20
	pollEvery      = time.Millisecond
	requestTimeout = 30 * time.Second
	verifySample   = 16 // unique served specs checked against the offline engine
	cacheEntries   = 1024
)

var serveParts = []int{2, 4, 8, 16}

// reqSpec is one member of the request universe.
type reqSpec struct {
	Corpus string // named corpus instance, or "" for an inline upload
	Inline int    // index of the inline matrix when Corpus is ""
	P      int
	Seed   int64
}

// serveInputs is everything the load generator sends and checks
// against: the spec universe, the matrices behind it, and the mix.
type serveInputs struct {
	specs     []reqSpec
	instances []corpus.Instance
	byName    map[string]*sparse.Matrix
	inline    []*sparse.Matrix
	inlineMM  [][]byte // JSON-quoted Matrix Market text of each inline matrix
	hashes    map[*sparse.Matrix]string
	mix       *mix
}

// hash is the content address of spec s's matrix.
func (in *serveInputs) hash(s reqSpec) string { return in.hashes[in.matrix(s)] }

func (in *serveInputs) matrix(s reqSpec) *sparse.Matrix {
	if s.Corpus != "" {
		return in.byName[s.Corpus]
	}
	return in.inline[s.Inline]
}

func (in *serveInputs) name(s reqSpec) string {
	if s.Corpus != "" {
		return s.Corpus
	}
	return fmt.Sprintf("inline-%d", s.Inline)
}

// body is the POST /jobs payload of spec i.
func (in *serveInputs) body(i int) []byte {
	s := in.specs[i]
	if s.Corpus != "" {
		return fmt.Appendf(nil, `{"corpus":%q,"p":%d,"method":"MG","seed":%d,"workers":1}`, s.Corpus, s.P, s.Seed)
	}
	b := fmt.Appendf(nil, `{"p":%d,"method":"MG","seed":%d,"workers":1,"matrix_mtx":`, s.P, s.Seed)
	b = append(b, in.inlineMM[s.Inline]...)
	return append(b, '}')
}

// newServeInputs builds the corpus the servers are configured with and
// a few generated upload matrices, all from the workload seed.
func newServeInputs(seed int64) (*serveInputs, error) {
	in := &serveInputs{
		instances: corpus.Build(corpus.Options{Scale: 1, Seed: seed}),
		byName:    make(map[string]*sparse.Matrix),
	}
	rng := rand.New(rand.NewSource(seed))
	in.inline = []*sparse.Matrix{
		gen.ErdosRenyi(rng, 300, 300, 0.02),
		gen.PowerLawGraph(rng, 500, 4),
		gen.Laplacian2D(30, 30),
		gen.RandomBipartite(rng, 400, 150, 5),
	}
	for _, a := range in.inline {
		a.Canonicalize() // the service canonicalizes uploads; parts follow that order
		var mm bytes.Buffer
		if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
			return nil, err
		}
		q, err := json.Marshal(mm.String())
		if err != nil {
			return nil, err
		}
		in.inlineMM = append(in.inlineMM, q)
	}
	in.hashes = make(map[*sparse.Matrix]string)
	for _, a := range in.inline {
		in.hashes[a] = service.MatrixHash(a)
	}
	// One class of specs per matrix and part count, one member per seed.
	class := func(spec reqSpec) []int {
		var cl []int
		for s := int64(1); s <= specSeeds; s++ {
			spec.Seed = s
			cl = append(cl, len(in.specs))
			in.specs = append(in.specs, spec)
		}
		return cl
	}
	var corpusClasses, inlineClasses [][]int
	for _, inst := range in.instances {
		in.byName[inst.Name] = inst.A
		in.hashes[inst.A] = service.MatrixHash(inst.A)
		for _, p := range serveParts {
			corpusClasses = append(corpusClasses, class(reqSpec{Corpus: inst.Name, P: p}))
		}
	}
	for k := range in.inline {
		for _, p := range serveParts {
			inlineClasses = append(inlineClasses, class(reqSpec{Inline: k, P: p}))
		}
	}
	in.mix = newMix(rng, corpusClasses, inlineClasses, zipfS, inlineShare)
	return in, nil
}

// sampleSpecs picks n distinct specs of the schedule with a seeded rng:
// the offline engine recomputes these and their served parts must match.
func sampleSpecs(rng *rand.Rand, sched []arrival, n int) []int {
	seen := make(map[int]bool)
	var uniq []int
	for _, a := range sched {
		if !seen[a.Spec] {
			seen[a.Spec] = true
			uniq = append(uniq, a.Spec)
		}
	}
	rng.Shuffle(len(uniq), func(i, j int) { uniq[i], uniq[j] = uniq[j], uniq[i] })
	return uniq[:min(n, len(uniq))]
}

// counters are the server-side totals the benchmark reads from /stats.
type counters struct {
	Hits, Misses, Dedup, Rejected                  int64
	Forwarded, Retries, PeerFetchOK, ReplicatedOut int64
}

func (c counters) minus(o counters) counters {
	return counters{
		Hits: c.Hits - o.Hits, Misses: c.Misses - o.Misses, Dedup: c.Dedup - o.Dedup, Rejected: c.Rejected - o.Rejected,
		Forwarded: c.Forwarded - o.Forwarded, Retries: c.Retries - o.Retries,
		PeerFetchOK: c.PeerFetchOK - o.PeerFetchOK, ReplicatedOut: c.ReplicatedOut - o.ReplicatedOut,
	}
}

// topology is a running in-process deployment: one service node, or two
// shards behind a router. Clients submit to base.
type topology struct {
	base     string
	servers  []*service.Server
	https    []*http.Server
	router   *cluster.Router
	client   *http.Client // router and shard peer traffic
	dataDirs []string
}

// startTopology builds and starts the servers on loopback listeners,
// each persisting to a fresh directory under work. A single node runs
// the engine on nproc workers; cluster shards run one worker each.
func startTopology(in *serveInputs, seed int64, clustered bool, nproc int, work string) (*topology, error) {
	t := &topology{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	serve := func(ln net.Listener, h http.Handler) {
		hs := &http.Server{Handler: h}
		t.https = append(t.https, hs)
		go hs.Serve(ln)
	}
	newServer := func(workers int, shard *cluster.ShardConfig) (*service.Server, error) {
		dir, err := os.MkdirTemp(work, "serve-data-")
		if err != nil {
			return nil, err
		}
		t.dataDirs = append(t.dataDirs, dir)
		s, warns := service.New(service.Config{Workers: workers, CacheEntries: cacheEntries, DataDir: dir, CorpusSeed: seed, Cluster: shard})
		if len(warns) > 0 {
			return nil, fmt.Errorf("service: %v", warns[0])
		}
		t.servers = append(t.servers, s)
		return s, nil
	}
	if !clustered {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		s, err := newServer(nproc, nil)
		if err != nil {
			ln.Close()
			t.close()
			return nil, err
		}
		serve(ln, s.Handler())
		t.base = "http://" + ln.Addr().String()
		return t, nil
	}
	var lns []net.Listener // two shards, then the router
	var err error
	for range 3 {
		var ln net.Listener
		if ln, err = listen(); err != nil {
			break
		}
		lns = append(lns, ln)
	}
	var ring *cluster.Ring
	if err == nil {
		ring, err = cluster.NewRing([]string{lns[0].Addr().String(), lns[1].Addr().String()}, 0, 2)
	}
	for i := 0; err == nil && i < 2; i++ {
		var s *service.Server
		s, err = newServer(1, &cluster.ShardConfig{Self: lns[i].Addr().String(), Ring: ring, Client: t.client})
		if err == nil {
			serve(lns[i], s.Handler())
		}
	}
	if err == nil {
		hashes := make(map[string]string, len(in.instances))
		for _, inst := range in.instances {
			hashes[inst.Name] = in.hashes[inst.A]
		}
		t.router, err = cluster.NewRouter(cluster.RouterConfig{Shards: ring.Nodes(), Replicas: 2, CorpusHashes: hashes, Client: t.client})
	}
	if err != nil {
		for _, ln := range lns {
			ln.Close() // a second close of a served listener is harmless
		}
		t.close()
		return nil, err
	}
	serve(lns[2], t.router.Handler())
	t.base = "http://" + lns[2].Addr().String()
	return t, nil
}

// counters reads the cache and routing totals: the node's own stats, or
// the router's merged view of both shards.
func (t *topology) counters() counters {
	if t.router == nil {
		st := t.servers[0].Stats()
		return counters{Hits: st.Cache.Hits, Misses: st.Cache.Misses, Dedup: st.Deduplicated, Rejected: st.Rejected}
	}
	st := t.router.Stats()
	return counters{
		Hits: st.Totals.CacheHits, Misses: st.Totals.CacheMisses, Dedup: st.Totals.Deduplicated, Rejected: st.Totals.Rejected,
		Forwarded: st.Router.Forwarded, Retries: st.Router.Retries,
		PeerFetchOK: st.Totals.PeerFetchOK, ReplicatedOut: st.Totals.ReplicatedOut,
	}
}

// ownerURL is the base URL of the shard owning spec i (cluster only).
func (t *topology) ownerURL(in *serveInputs, i int) (string, error) {
	var spec service.JobSpec
	if err := json.Unmarshal(in.body(i), &spec); err != nil {
		return "", err
	}
	key, err := cluster.RouteKey(spec, func(name string) (string, bool) {
		h, ok := in.hashes[in.byName[name]]
		return h, ok
	})
	if err != nil {
		return "", err
	}
	return cluster.NodeURL(t.router.Ring().Owner(key)), nil
}

// close stops the listeners, drains every node and removes its data.
func (t *topology) close() {
	for _, hs := range t.https {
		hs.Close()
	}
	for _, s := range t.servers {
		s.Drain()
	}
	t.client.CloseIdleConnections()
	for _, dir := range t.dataDirs {
		os.RemoveAll(dir)
	}
}

// sample is the client's record of one request.
type sample struct {
	Spec     int           `json:"spec"`
	Intended time.Duration `json:"intended_ns"` // relative to the start of its slice of the schedule
	At       time.Duration `json:"at_ns"`       // intended time relative to the process start
	Late     time.Duration `json:"late_ns"`     // send time minus intended time
	Latency  time.Duration `json:"latency_ns"`  // result fully read minus intended time
	OK       bool          `json:"ok"`
	Err      string        `json:"err,omitempty"`
	Cached   bool          `json:"cached"`
	Polls    int           `json:"polls"`
	SubmitMS float64       `json:"submit_ms"`
	ResultMS float64       `json:"result_ms"`
	ResultKB float64       `json:"result_kb"`
	QueueMS  float64       `json:"queue_ms"`
	RunMS    float64       `json:"run_ms"`
	// Incorrect marks a result that came back but failed a check.
	Incorrect bool   `json:"incorrect,omitempty"`
	body      []byte // the fetched result until checkResult digests it
	parts     uint64
	req       int64 // trace request id
}

// loadClient sends requests over at most nproc connections.
func loadClient(nproc int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
}

// doRequest submits spec i, polls a miss to completion every pollEvery
// and reads the full result. Latency runs from intended, the scheduled
// send time, to the last result byte.
func doRequest(client *http.Client, base string, in *serveInputs, i int, intended time.Time, tr *tracer, reqID int64) sample {
	s := sample{Spec: i, Late: time.Since(intended)}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	root := tr.start("request", 0, reqID)
	defer root.finish()

	call := func(name, method, url string, body []byte) ([]byte, int, time.Duration, error) {
		sp := tr.start(name, root.id(), reqID)
		defer sp.finish()
		t0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, 0, 0, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, 0, 0, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return b, resp.StatusCode, time.Since(t0), err
	}
	fail := func(format string, args ...any) sample {
		s.Err = fmt.Sprintf(format, args...)
		s.Latency = time.Since(intended)
		return s
	}

	b, code, d, err := call("http.submit", http.MethodPost, base+"/jobs", in.body(i))
	if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
		return fail("submit: status %d: %v %s", code, err, strings.TrimSpace(string(b)))
	}
	s.SubmitMS = ms(d)
	var jv service.JobView
	if err := json.Unmarshal(b, &jv); err != nil {
		return fail("submit: %v", err)
	}
	s.Cached = jv.Cached
	for jv.State != service.StateDone {
		if jv.State == service.StateFailed || jv.State == service.StateCanceled {
			return fail("job %s %s: %s", jv.ID, jv.State, jv.Error)
		}
		select {
		case <-ctx.Done():
			return fail("timeout after %d polls", s.Polls)
		case <-time.After(pollEvery):
		}
		s.Polls++
		b, code, _, err = call("http.poll", http.MethodGet, base+"/jobs/"+jv.ID, nil)
		if err != nil || code != http.StatusOK {
			return fail("poll: status %d: %v", code, err)
		}
		if err := json.Unmarshal(b, &jv); err != nil {
			return fail("poll: %v", err)
		}
	}
	s.QueueMS, s.RunMS = jv.QueueMS, jv.RunMS
	b, code, d, err = call("http.result", http.MethodGet, base+"/jobs/"+jv.ID+"/result", nil)
	s.Latency = time.Since(intended)
	if err != nil || code != http.StatusOK {
		return fail("result: status %d: %v", code, err)
	}
	s.ResultMS, s.ResultKB = ms(d), float64(len(b))/1024
	s.OK, s.body, s.req = true, b, reqID
	return s
}

// checkResult decodes and checks a fetched result once its slice of the
// schedule has ended, so the checks take no processor time from the
// requests being timed. It keeps only the parts digest.
func checkResult(in *serveInputs, s *sample, tr *tracer) {
	if !s.OK {
		return
	}
	sp := tr.start("check.served", 0, s.req)
	defer sp.finish()
	var rv service.ResultView
	err := json.Unmarshal(s.body, &rv)
	s.body = nil
	spec, a := in.specs[s.Spec], in.matrix(in.specs[s.Spec])
	switch {
	case err != nil:
		s.Incorrect, s.Err = true, "undecodable result: "+err.Error()
	case rv.P != spec.P || rv.Seed != spec.Seed || rv.Method != "MG" || rv.Hash != in.hash(spec):
		s.Incorrect, s.Err = true, fmt.Sprintf("result is for another spec: %s p=%d seed=%d", rv.Method, rv.P, rv.Seed)
	case metrics.ValidateParts(a, rv.Parts, rv.P) != nil:
		s.Incorrect, s.Err = true, "invalid parts"
	case metrics.Volume(a, rv.Parts, rv.P) != rv.Volume:
		s.Incorrect, s.Err = true, "reported volume differs from the recomputed volume"
	}
	s.parts = hashParts(rv.Parts)
}

// hashParts is an FNV-1a digest of a parts vector, enough to compare
// two vectors for equality without keeping them.
func hashParts(parts []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range parts {
		for k := range buf {
			buf[k] = byte(uint64(p) >> (8 * k))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// warmUp submits the given specs from nproc closed-loop clients until
// each is served, so the timed phase starts with the cache holding the
// most popular entries. Nothing here is timed or counted.
func warmUp(client *http.Client, base string, in *serveInputs, specs []int, nproc int) {
	work := make(chan int)
	var wg sync.WaitGroup
	for range nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				doRequest(client, base, in, i, time.Now(), nil, 0)
			}
		}()
	}
	for _, i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()
}

// processStart anchors the absolute request times in the record, so
// stalls can be lined up with other process events.
var processStart = time.Now()

// maxInFlight bounds the generator's concurrent requests; when all are
// in flight the generator falls behind schedule, which shows as
// lateness instead of as unbounded goroutines.
const maxInFlight = 1024

// loadResult is one open-loop phase, possibly run in several slices.
type loadResult struct {
	Samples []sample
	Sent    int
	// Backlog counts requests due before a chunk's last arrival that were
	// still running at that moment, summed over the chunks.
	Backlog int
	Before  counters
	After   counters
}

// add appends a later chunk's results.
func (r *loadResult) add(c loadResult) {
	if r.Sent == 0 {
		r.Before = c.Before
	}
	r.Samples = append(r.Samples, c.Samples...)
	r.Sent += c.Sent
	r.Backlog += c.Backlog
	r.After = c.After
}

// chunks cuts a schedule into n consecutive slices, each rebased so its
// first arrival is due at once.
func chunks(sched []arrival, n int) [][]arrival {
	out := make([][]arrival, n)
	for k := range n {
		c := slices.Clone(sched[k*len(sched)/n : (k+1)*len(sched)/n])
		for i := range c {
			c[i].At -= sched[k*len(sched)/n].At
		}
		out[k] = c
	}
	return out
}

// runOpenLoop sends the schedule open loop: each request goes out at its
// intended time whatever the state of earlier ones, and its latency
// counts from that time. It returns once every request has ended.
func runOpenLoop(client *http.Client, t *topology, in *serveInputs, sched []arrival, tr *tracer) loadResult {
	res := loadResult{Samples: make([]sample, len(sched)), Before: t.counters()}
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for k, a := range sched {
		intended := start.Add(a.At)
		time.Sleep(time.Until(intended))
		sem <- struct{}{}
		wg.Add(1)
		res.Sent++
		go func() {
			defer wg.Done()
			s := doRequest(client, t.base, in, a.Spec, intended, tr, tr.newRequest())
			s.Intended, s.At = a.At, intended.Sub(processStart)
			res.Samples[k] = s
			<-sem
		}()
	}
	wg.Wait()
	res.After = t.counters()
	for k := range res.Samples {
		checkResult(in, &res.Samples[k], tr)
	}
	if len(sched) > 0 {
		res.Backlog = backlogAt(res.Samples, sched[len(sched)-1].At)
	}
	return res
}

// hopProbe measures the router hop: the median latency of cache-hit
// requests sent through the router minus that of the same requests sent
// straight to the owning shard, alternating the two paths.
func hopProbe(t *topology, in *serveInputs, specs []int, rounds int) (float64, error) {
	client := loadClient(1)
	defer client.CloseIdleConnections()
	var via, direct []float64
	for r := range rounds {
		i := specs[r%len(specs)]
		owner, err := t.ownerURL(in, i)
		if err != nil {
			return 0, err
		}
		for _, base := range []string{t.base, owner} {
			s := doRequest(client, base, in, i, time.Now(), nil, 0)
			if !s.OK || !s.Cached {
				return 0, fmt.Errorf("hop probe: spec %d via %s: ok=%v cached=%v %s", i, base, s.OK, s.Cached, s.Err)
			}
			if base == t.base {
				via = append(via, ms(s.Latency))
			} else {
				direct = append(direct, ms(s.Latency))
			}
		}
	}
	return median(via) - median(direct), nil
}

// newDataRoot makes the directory the servers persist under.
func newDataRoot(work string) (string, error) {
	dir := filepath.Join(work, "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}
