package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/datasets"
	"repro/internal/gate"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/serve"
)

// querySize is the query workload's shape.
type querySize struct {
	cx, cy, ct int
	specs      []datasets.Spec
	perClass   int // requests per class and dataset in one round
	evalQs     int // fixed random-class queries per dataset scored for MRE
	setupReps  int
	calibrate  int // requests per batch in the traced allocation count
	answerLoop time.Duration
}

func paperQuery() querySize {
	return querySize{cx: 32, cy: 32, ct: 120, specs: datasets.All(), perClass: 300, evalQs: 300,
		setupReps: 5, calibrate: 2000, answerLoop: 200 * time.Millisecond}
}

// releasesSeed fixes the four served releases: like the release
// workload's datasets they are the same in every run, while the
// analysts' traffic comes from the run's seed.
const releasesSeed = 20250

// served is one release as the benchmark generated it.
type served struct {
	name        string
	truth, rel  *grid.Matrix
	path        string
	tol         float64 // rounding allowed between index and naive sums
	evalQueries []grid.Query
}

// makeServed generates a consumption matrix with the spec's scale and a
// release of it with Laplace noise, and writes the release in the
// x,y,t,value format the serving tier loads.
func makeServed(rng *rand.Rand, spec datasets.Spec, cx, cy, ct int, dir string) (*served, error) {
	truth, rel := grid.NewMatrix(cx, cy, ct), grid.NewMatrix(cx, cy, ct)
	cellMean := float64(spec.Households) * spec.MeanKWh * 24 / float64(cx*cy)
	for y := 0; y < cy; y++ {
		for x := 0; x < cx; x++ {
			base := cellMean * math.Exp(0.5*rng.NormFloat64())
			for t := 0; t < ct; t++ {
				v := base * (1 + 0.2*math.Sin(2*math.Pi*float64(t)/7)) * math.Exp(0.1*rng.NormFloat64())
				truth.Set(x, y, t, v)
				rel.Set(x, y, t, v+laplace(rng, 0.2*cellMean))
			}
		}
	}
	s := &served{name: spec.Name, truth: truth, rel: rel, path: filepath.Join(dir, spec.Name+".csv"), tol: 1e-9 * math.Max(1, absTotal(rel))}
	f, err := os.Create(s.path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString("x,y,t,value\n")
	for t := 0; t < ct; t++ {
		for y := 0; y < cy; y++ {
			for x := 0; x < cx; x++ {
				fmt.Fprintf(bw, "%d,%d,%d,%s\n", x, y, t, strconv.FormatFloat(rel.At(x, y, t), 'g', -1, 64))
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return s, f.Close()
}

// laplace draws from Laplace(0, b) by inverting its CDF.
func laplace(rng *rand.Rand, b float64) float64 {
	u := rng.Float64() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}

// inproc is the gateway's transport: it hands each attempt straight to
// the replica's handler, with no socket in between. It records the last
// replica call so a traced run can split a request between the layers.
type inproc struct {
	replicas map[string]http.Handler // by URL host
	calls    int
	handler  time.Duration // time inside the last replica handler
	bytes    int           // body size of the last replica response
}

func (t *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.replicas[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no replica at %s", req.URL.Host)
	}
	// The replica side gets its own request, as a server would.
	sreq := req.Clone(req.Context())
	sreq.RequestURI = req.URL.RequestURI()
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, sreq)
	t.handler = time.Since(start)
	t.calls++
	t.bytes = rec.Body.Len()
	return rec.Result(), nil
}

// client is the analysts' side of one request: a reusable response sink.
type client struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (c *client) Header() http.Header { return c.header }
func (c *client) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
}
func (c *client) Write(p []byte) (int, error) {
	if c.code == 0 {
		c.code = http.StatusOK
	}
	return c.body.Write(p)
}
func (c *client) reset() {
	clear(c.header)
	c.code = 0
	c.body.Reset()
}

// tier is one set-up of the serving tier: two replicas behind a gateway.
type tier struct {
	gateway  http.Handler
	shim     *inproc
	stores   []*serve.Store
	replicas map[string]http.Handler
	loadS    float64 // Store.LoadAll on both replicas
}

var replicaURLs = []string{"http://replica-0", "http://replica-1"}

func buildTier(ctx context.Context, rels []*served) (*tier, error) {
	specs := make([]serve.LoadSpec, len(rels))
	for i, s := range rels {
		specs[i] = serve.LoadSpec{Name: s.name, Path: s.path}
	}
	t := &tier{replicas: map[string]http.Handler{}}
	for _, u := range replicaURLs {
		st := serve.NewStore()
		sw := startWatch()
		if err := st.LoadAll(specs); err != nil {
			return nil, err
		}
		_, d := sw.stop()
		t.loadS += d.Seconds()
		t.stores = append(t.stores, st)
		t.replicas[u[len("http://"):]] = serve.New(ctx, st, serve.Config{}).Handler()
	}
	t.shim = &inproc{replicas: t.replicas}
	gw, err := gate.New(gate.Config{Replicas: replicaURLs, HTTP: &http.Client{Transport: t.shim}})
	if err != nil {
		return nil, err
	}
	t.gateway = gw.Handler()
	return t, nil
}

// request is one analyst query of the round.
type request struct {
	rel *served
	q   grid.Query
	url string
}

func queryURL(name string, q grid.Query) string {
	return fmt.Sprintf("/query?d=%s&x0=%d&x1=%d&y0=%d&y1=%d&t0=%d&t1=%d", name, q.X0, q.X1, q.Y0, q.Y1, q.T0, q.T1)
}

func runQuery(ctx context.Context, e *env, r *report) error {
	return queryWorkload(ctx, e, r, paperQuery())
}

// queryWorkload is the analysts' read path as deployed for high
// availability: one closed-loop client sends /query through the
// failover gateway to two replicas. Nothing waits on a timer, a probe
// or a socket, so the loop measures the request path alone.
func queryWorkload(ctx context.Context, e *env, r *report, size querySize) error {
	frng := rand.New(rand.NewSource(releasesSeed))
	var rels []*served
	for _, spec := range size.specs {
		s, err := makeServed(frng, spec, size.cx, size.cy, size.ct, e.dir)
		if err != nil {
			return err
		}
		s.evalQueries = query.Generate(frng, query.Random, size.cx, size.cy, size.ct, size.evalQs)
		rels = append(rels, s)
	}

	var t *tier
	var setups, loads []float64
	for rep := 0; rep < size.setupReps; rep++ {
		t = nil
		runtime.GC() // each set-up starts from a collected heap
		sw := startWatch()
		nt, err := buildTier(ctx, rels)
		if err != nil {
			return fmt.Errorf("setting up the serving tier: %w", err)
		}
		_, d := sw.stop()
		setups = append(setups, d.Seconds())
		loads = append(loads, nt.loadS)
		t = nt
	}

	// The round interleaves classes and datasets as independent analysts
	// would; its queries come from the run's seed.
	rng := rand.New(rand.NewSource(e.seed))
	var round []request
	perClass := map[query.Class][][]grid.Query{}
	for _, c := range query.Classes() {
		for range rels {
			perClass[c] = append(perClass[c], query.Generate(rng, c, size.cx, size.cy, size.ct, size.perClass))
		}
	}
	for i := 0; i < size.perClass; i++ {
		for _, c := range query.Classes() {
			for d, s := range rels {
				q := perClass[c][d][i]
				round = append(round, request{rel: s, q: q, url: queryURL(s.name, q)})
			}
		}
	}

	cl := &client{header: http.Header{}}
	replicaOK := map[string]bool{}
	for _, u := range replicaURLs {
		replicaOK[u] = true
	}
	// do sends one request and checks the answer outside the timed span.
	do := func(rq request) (time.Duration, bool) {
		req := httptest.NewRequest(http.MethodGet, rq.url, nil)
		cl.reset()
		start := time.Now()
		t.gateway.ServeHTTP(cl, req)
		d := time.Since(start)
		if cl.code != http.StatusOK {
			e.logf("query %s: HTTP %d: %s", rq.url, cl.code, bytes.TrimSpace(cl.body.Bytes()))
			return d, false
		}
		if rep := cl.header.Get("X-STPT-Replica"); !replicaOK[rep] {
			r.check(fmt.Errorf("query %s answered by %q, not a configured replica", rq.url, rep))
		}
		var a answer
		if err := json.Unmarshal(cl.body.Bytes(), &a); err != nil {
			r.check(fmt.Errorf("query %s: %v", rq.url, err))
		} else {
			r.check(checkAnswer(a, rq.rel.name, rq.q, rq.rel.rel, rq.rel.tol))
		}
		return d, true
	}

	for _, rq := range round { // warm-up round, untimed
		if _, ok := do(rq); !ok {
			return fmt.Errorf("warm-up request %s failed", rq.url)
		}
	}

	type loopStats struct {
		lat, handler, self  []float64
		roundP99, roundRate []float64
		n, bytes, calls     int
		wall, unstolen      time.Duration
	}
	timed := func(traced bool) (*loopStats, error) {
		st := &loopStats{}
		err := loop(e.seconds, func() error {
			first, n := len(st.lat), st.n
			var busy time.Duration
			sw := startWatch()
			defer func() {
				// Requests are too short to read the steal counters around;
				// the round's steal is shared out by the requests' share of
				// the round.
				wall, unstolen := sw.stop()
				st.wall += wall
				st.unstolen += unstolen
				busy -= time.Duration(float64(wall-unstolen) * busy.Seconds() / wall.Seconds())
				st.roundP99 = append(st.roundP99, percentile(st.lat[first:], 99))
				st.roundRate = append(st.roundRate, float64(st.n-n)/busy.Seconds())
			}()
			for _, rq := range round {
				r.attempted++
				calls := t.shim.calls
				d, ok := do(rq)
				if !ok {
					r.failed++
					continue
				}
				st.n++
				busy += d
				st.lat = append(st.lat, float64(d)/1e6)
				if traced {
					h := t.shim.handler
					st.handler = append(st.handler, float64(h)/1e3)
					st.self = append(st.self, float64(d-h)/1e3)
					st.bytes += t.shim.bytes
					st.calls += t.shim.calls - calls
				}
			}
			return nil
		})
		return st, err
	}

	st, err := timed(false)
	if err != nil {
		return err
	}
	if st.n == 0 {
		return fmt.Errorf("no request succeeded")
	}
	p50 := median(st.lat)
	if !e.trace {
		r.metrics["setup_s"] = median(setups)
		r.metrics["latency_p50_ms"] = p50
		// A round is a few thousand requests, so its p99 has tens of
		// samples past it; the median over rounds keeps a burst of
		// interference from another process out of the figure.
		r.metrics["latency_tail_ms"] = median(st.roundP99)
		r.metrics["throughput_per_s"] = median(st.roundRate)
		mre, err := servedMRE(t.gateway, cl, rels)
		if err != nil {
			return err
		}
		r.metrics["mre_random_pct"] = mre
		r.metrics["max_rss_mb"] = maxRSSMiB()
		e.logf("query: %d requests in %d rounds, p50 %.1f us, p99 %.1f us", st.n, len(st.roundRate), 1e3*p50, 1e3*r.metrics["latency_tail_ms"])
		return nil
	}

	var prof cpuProfile
	if err := prof.start(); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := timed(true)
	runtime.ReadMemStats(&after)
	byPkg, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	n := float64(tr.n)
	r.metrics["serve.load_s"] = median(loads)
	r.metrics["serve.handler_us"] = median(tr.handler)
	r.metrics["serve.handler_p99_us"] = percentile(tr.handler, 99)
	r.metrics["gate.self_us"] = median(tr.self)
	r.metrics["serve.resp_bytes"] = float64(tr.bytes) / n
	r.metrics["gate.attempts_per_req"] = float64(tr.calls) / n
	r.metrics["runtime.gc_per_op"] = float64(after.NumGC-before.NumGC) / n
	r.metrics["host.steal_pct"] = 100 * (1 - tr.unstolen.Seconds()/tr.wall.Seconds())
	putCPU(r, byPkg, tr.n)
	r.metrics["trace.overhead_pct"] = 100 * (median(tr.lat)/p50 - 1)

	// Allocations per request, counted over batches so that no request
	// pays for a stop-the-world read: once through a replica alone, once
	// through the gateway.
	replica := t.replicas[replicaURLs[0][len("http://"):]]
	serveAllocs := allocsPer(size.calibrate, round, func(rq request) {
		cl.reset()
		replica.ServeHTTP(cl, httptest.NewRequest(http.MethodGet, rq.url, nil))
	})
	gateAllocs := allocsPer(size.calibrate, round, func(rq request) {
		cl.reset()
		t.gateway.ServeHTTP(cl, httptest.NewRequest(http.MethodGet, rq.url, nil))
	})
	reqAllocs := allocsPer(size.calibrate, round, func(rq request) {
		httptest.NewRequest(http.MethodGet, rq.url, nil)
	})
	r.metrics["serve.allocs_per_req"] = serveAllocs - reqAllocs
	r.metrics["gate.allocs_per_req"] = gateAllocs - serveAllocs

	// query.Answer alone, on one replica's index, over the round's boxes.
	rel, err := t.stores[0].Get(rels[0].name)
	if err != nil {
		return err
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < size.answerLoop {
		for _, rq := range round {
			if _, ok := query.Answer(rel.Index, rq.q); !ok {
				return fmt.Errorf("query.Answer refused %+v", rq.q)
			}
		}
		calls += len(round)
	}
	r.metrics["query.answer_ns"] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	return nil
}

// allocsPer counts heap allocations per call of fn over n requests.
func allocsPer(n int, round []request, fn func(request)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(round[i%len(round)])
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// servedMRE scores the served answers on each release's fixed
// random-class evaluation set against the true matrix, by the rule of
// naiveMRE. The set is the same in every run, so the figure is too.
func servedMRE(gw http.Handler, cl *client, rels []*served) (float64, error) {
	var sum float64
	n := 0
	for _, s := range rels {
		var total float64
		for _, v := range s.truth.Data() {
			total += v
		}
		perCell := total * 0.001 / float64(s.truth.Len())
		for _, q := range s.evalQueries {
			cl.reset()
			gw.ServeHTTP(cl, httptest.NewRequest(http.MethodGet, queryURL(s.name, q), nil))
			var a answer
			if cl.code != http.StatusOK {
				return 0, fmt.Errorf("evaluation query %+v: HTTP %d", q, cl.code)
			}
			if err := json.Unmarshal(cl.body.Bytes(), &a); err != nil {
				return 0, err
			}
			truth, _ := naiveSum(s.truth, q)
			if truth < math.Max(1, perCell*float64(q.Volume())) {
				continue
			}
			sum += 100 * math.Abs(truth-a.Sum) / truth
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("every evaluation query fell below the MRE floor")
	}
	return sum / float64(n), nil
}
