package main

import (
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

	"repro/internal/dp"
	"repro/internal/grid"
	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/serve"
)

// streamSize is the stream workload's shape.
type streamSize struct {
	cx, cy       int
	households   int
	window       int // intervals per published window
	windows      int // windows per round; each round starts from empty state
	batch        int // ingest WAL batch size
	malformed    int // malformed lines per interval
	lateShare    float64
	maxDelay     int // a late reading arrives 1..maxDelay intervals late
	compactEvery int // windows between Ingester.Compact calls
	epsNode      float64
	maxReading   float64 // readings are clipped here; it is the sensitivity
	evalQs       int     // fixed random-class queries per window scored for MRE
}

// paperStream: 5,000 households reporting hourly on the 32x32 grid,
// published in daily windows. The batch size makes about eight WAL
// appends per interval.
func paperStream() streamSize {
	return streamSize{cx: 32, cy: 32, households: 5000, window: 24, windows: 8, batch: 640,
		malformed: 5, lateShare: 0.02, maxDelay: 3, compactEvery: 4, epsNode: 1, maxReading: 5, evalQs: 300}
}

// streamNoiseSeed fixes the pipeline's noise seed, a setting of the
// program rather than an input, so the released noise is the same in
// every run and the utility figure moves only with the readings.
const streamNoiseSeed = 7

// streamInput is a round's traffic, made once per run from the seed and
// replayed by every round.
type streamInput struct {
	calls      [][]byte       // one Ingest payload per interval
	cuts       []*grid.Matrix // per window: sums of the readings sent before its cut
	quarantine int            // malformed lines per round
	queries    []grid.Query   // one served query per window
	evalQs     []grid.Query
}

// malformedLines are the refusals the ingester must quarantine, one per
// validation rule; %d is the interval.
var malformedLines = []string{
	"%d,1,1",          // field count
	"a,1,%d,1.0",      // non-integer coordinate
	"99,0,%d,1.0",     // outside the grid
	"0,0,%d,-1.5",     // negative consumption
	"0,0,%d,NaN",      // non-finite value
	"0,0,99999%d,1.0", // interval out of range
}

func makeStreamInput(seed int64, size streamSize) *streamInput {
	rng := rand.New(rand.NewSource(seed))
	ct := size.window * size.windows
	type household struct {
		x, y  int
		scale float64
		phase int
	}
	hs := make([]household, size.households)
	for i := range hs {
		hs[i] = household{x: rng.Intn(size.cx), y: rng.Intn(size.cy), scale: math.Exp(0.4 * rng.NormFloat64()), phase: rng.Intn(7) - 3}
	}
	type reading struct {
		h       int
		t       int
		text    []byte
		value   float64
		arrival int
	}
	arrivals := make([][]reading, ct)
	for t := 0; t < ct; t++ {
		for i, h := range hs {
			hour := (t + h.phase + 24) % 24
			v := 0.6 * h.scale * (1 + 0.8*math.Sin(2*math.Pi*float64(hour-7)/24)) * math.Exp(0.3*rng.NormFloat64())
			v = math.Min(math.Max(v, 0.01), size.maxReading)
			text := strconv.AppendFloat(nil, v, 'f', 3, 64)
			parsed, _ := strconv.ParseFloat(string(text), 64)
			a := t
			if rng.Float64() < size.lateShare {
				if d := 1 + rng.Intn(size.maxDelay); t+d < ct {
					a = t + d
				}
			}
			arrivals[a] = append(arrivals[a], reading{h: i, t: t, text: text, value: parsed, arrival: a})
		}
	}
	in := &streamInput{quarantine: ct * size.malformed}
	for w := 0; w < size.windows; w++ {
		in.cuts = append(in.cuts, grid.NewMatrix(size.cx, size.cy, size.window))
	}
	for a := 0; a < ct; a++ {
		rs := arrivals[a]
		bad := map[int]int{} // line position -> malformed kind
		for k := 0; k < size.malformed; k++ {
			bad[rng.Intn(len(rs)+1)] = (a*size.malformed + k) % len(malformedLines)
		}
		var buf bytes.Buffer
		for i := 0; i <= len(rs); i++ {
			if kind, ok := bad[i]; ok {
				fmt.Fprintf(&buf, malformedLines[kind]+"\n", a)
			}
			if i == len(rs) {
				break
			}
			r := rs[i]
			h := hs[r.h]
			fmt.Fprintf(&buf, "%d,%d,%d,%s\n", h.x, h.y, r.t, r.text)
			// A reading counts in its window's cut only when it arrived
			// no later than the window's last interval.
			w := r.t / size.window
			if r.arrival < (w+1)*size.window {
				in.cuts[w].AddAt(h.x, h.y, r.t-w*size.window, r.value)
			}
		}
		in.calls = append(in.calls, buf.Bytes())
		// Colliding positions merge; count what was really injected.
		in.quarantine -= size.malformed - len(bad)
	}
	for w := 0; w < size.windows; w++ {
		in.queries = append(in.queries, randomBox(rng, size.cx, size.cy, size.window))
	}
	in.evalQs = query.GenerateSeeded(streamNoiseSeed, query.Random, size.cx, size.cy, size.window, size.evalQs)
	return in
}

// streamState is one round's program state, opened from empty files.
type streamState struct {
	dir      string
	out      string
	dl       *ingest.DeadLetter
	in       *ingest.Ingester
	led      *dp.Ledger
	man      *pipeline.Manifest
	sup      *pipeline.Supervisor
	srv      http.Handler
	reloadMS float64 // time inside the last Server.Reload
}

func openStream(ctx context.Context, dir string, size streamSize) (*streamState, error) {
	s := &streamState{dir: dir, out: filepath.Join(dir, "out")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if s.dl, err = ingest.OpenDeadLetter(filepath.Join(dir, "dead.jsonl"), 0); err != nil {
		return nil, err
	}
	cfg := ingest.Config{Cx: size.cx, Cy: size.cy, Ct: size.window * size.windows, BatchSize: size.batch, DeadLetter: s.dl}
	if s.in, err = ingest.New(cfg, filepath.Join(dir, "readings.wal")); err != nil {
		return nil, err
	}
	if s.led, err = dp.OpenLedger(filepath.Join(dir, "budget.ledger")); err != nil {
		return nil, err
	}
	if s.man, err = pipeline.OpenManifest(filepath.Join(dir, "manifest.jsonl")); err != nil {
		return nil, err
	}
	store := serve.NewStore()
	srv := serve.New(ctx, store, serve.Config{})
	// Nothing is published yet: the first window's reload fills the store.
	srv.MarkInitialLoad(store.LoadAll([]serve.LoadSpec{{Name: "stream", Path: pipeline.LatestPath(s.out)}}))
	s.srv = srv.Handler()
	s.sup, err = pipeline.New(pipeline.Config{
		Dataset: "meters", OutDir: s.out, Window: size.window, EpsNode: size.epsNode,
		Sensitivity: size.maxReading, Seed: streamNoiseSeed,
		Notifier: pipeline.NotifierFunc(func(context.Context) error {
			start := time.Now()
			err := srv.Reload()
			s.reloadMS = ms(time.Since(start))
			return err
		}),
	}, s.in, s.led, s.man)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *streamState) close() {
	s.in.Close()
	s.led.Close()
	s.man.Close()
	s.dl.Close()
	os.RemoveAll(s.dir)
}

// streamStats accumulates one loop's measurements.
type streamStats struct {
	setups, lat, ingestMS, compactMS, snapMB, reloadMS, verifyUS, windowKB []float64
	roundRate                                                              []float64 // accepted readings per busy second, per round
	stage                                                                  map[pipeline.State][]float64
	wall, busy                                                             time.Duration // timed spans, without and with steal taken out
	accepted                                                               int64
	windows, steps, batches, rounds, ledgerEntries, quarantined            int
	mreSum                                                                 float64
}

func runStream(ctx context.Context, e *env, r *report) error {
	return streamWorkload(ctx, e, r, paperStream())
}

// streamWorkload is continual release beside reads: hourly readings
// arrive as one Ingest call per interval; after each window's last
// interval the supervisor is stepped until the window is reloaded into
// the serving tier, and one query answers from it. The pipeline is
// driven by Step, never by a polling loop, so nothing waits on a timer.
func streamWorkload(ctx context.Context, e *env, r *report, size streamSize) error {
	input := makeStreamInput(e.seed, size)
	cells := size.cx * size.cy * size.window
	ct := size.window * size.windows
	full := grid.Query{X1: size.cx - 1, Y1: size.cy - 1, T1: size.window - 1}

	cl := &client{header: http.Header{}}
	// ask sends one query to the replica; d is the time it took to answer.
	ask := func(h http.Handler, q grid.Query) (a answer, d time.Duration, err error) {
		req := httptest.NewRequest(http.MethodGet, queryURL("stream", q), nil)
		cl.reset()
		start := time.Now()
		h.ServeHTTP(cl, req)
		d = time.Since(start) // well under a millisecond: wall clock
		if cl.code != http.StatusOK {
			return a, d, fmt.Errorf("query %+v: HTTP %d: %s", q, cl.code, bytes.TrimSpace(cl.body.Bytes()))
		}
		return a, d, json.Unmarshal(cl.body.Bytes(), &a)
	}

	// round runs one stream from empty state; every round is the same.
	round := func(st *streamStats, k int) error {
		runtime.GC() // every round starts from a collected heap
		setupStart := time.Now()
		s, err := openStream(ctx, filepath.Join(e.dir, fmt.Sprintf("round-%d", k)), size)
		if err != nil {
			return fmt.Errorf("opening stream state: %w", err)
		}
		st.setups = append(st.setups, time.Since(setupStart).Seconds())
		defer s.close()
		batches0 := s.in.Stats().Batches
		busy0, acc0 := st.busy, st.accepted
		for w := 1; w <= size.windows; w++ {
			var lat time.Duration
			for t := (w - 1) * size.window; t < w*size.window; t++ {
				sw := startWatch()
				acc, _, err := s.in.Ingest(ctx, bytes.NewReader(input.calls[t]))
				wall, d := sw.stop()
				if err != nil {
					return fmt.Errorf("ingesting interval %d: %w", t, err)
				}
				st.wall += wall
				st.busy += d
				st.accepted += acc
				st.ingestMS = append(st.ingestMS, ms(d))
				if t == w*size.window-1 {
					lat = d
				}
			}
			for s.man.LastWindow() != w || s.man.LastState() != pipeline.StateReloaded {
				sw := startWatch()
				advanced, err := s.sup.Step(ctx)
				wall, d := sw.stop()
				if err != nil {
					return err
				}
				if !advanced {
					return fmt.Errorf("window %d stalled in state %q", w, s.man.LastState())
				}
				lat += d
				st.wall += wall
				st.busy += d
				st.steps++
				state := s.man.LastState()
				st.stage[state] = append(st.stage[state], ms(d))
				if state == pipeline.StateCut {
					r.check(checkCutFile(s.out, w, input.cuts[w-1]))
				}
			}
			q := input.queries[w-1]
			a, d, err := ask(s.srv, q)
			if err != nil {
				return fmt.Errorf("window %d: %w", w, err)
			}
			lat += d
			st.wall += d
			st.busy += d
			st.lat = append(st.lat, ms(lat))
			st.verifyUS = append(st.verifyUS, float64(d)/1e3)
			st.reloadMS = append(st.reloadMS, s.reloadMS)
			st.windows++

			// Checks, untimed.
			raw, err := os.ReadFile(pipeline.WindowPath(s.out, w))
			if err != nil {
				return err
			}
			st.windowKB = append(st.windowKB, float64(len(raw))/1024)
			pub, err := parseMatrixCSV(bytes.NewReader(raw), size.cx, size.cy, size.window)
			if err != nil {
				r.check(fmt.Errorf("window %d file: %v", w, err))
				continue
			}
			r.check(checkAnswer(a, "stream", q, pub, 1e-9*math.Max(1, absTotal(pub))))
			total, _, err := ask(s.srv, full)
			if err != nil {
				return fmt.Errorf("window %d total: %w", w, err)
			}
			fileSum, _ := naiveSum(pub, full)
			trueSum, _ := naiveSum(input.cuts[w-1], full)
			r.check(checkWindowTotal(w, total.Sum, fileSum, trueSum, cells, size.maxReading/size.epsNode))
			r.check(checkLedger(w, s.led.Spent("meters"), size.epsNode))
			st.mreSum += naiveMRE(input.cuts[w-1], pub, input.evalQs)

			if w%size.compactEvery == 0 {
				sw := startWatch()
				err := s.in.Compact(ctx)
				wall, d := sw.stop()
				if err != nil {
					return fmt.Errorf("compacting: %w", err)
				}
				st.wall += wall
				st.busy += d
				st.compactMS = append(st.compactMS, ms(d))
				if fi, err := os.Stat(filepath.Join(s.dir, "readings.wal.snap")); err == nil {
					st.snapMB = append(st.snapMB, float64(fi.Size())/(1<<20))
				}
			}
		}
		stats := s.in.Stats()
		st.batches += int(stats.Batches - batches0)
		st.quarantined += int(stats.Quarantined)
		st.ledgerEntries += s.led.Len()
		st.rounds++
		st.roundRate = append(st.roundRate, float64(st.accepted-acc0)/(st.busy-busy0).Seconds())
		if stats.Quarantined != int64(input.quarantine) {
			r.check(fmt.Errorf("round quarantined %d lines, %d malformed were sent", stats.Quarantined, input.quarantine))
		}
		if stats.Accepted != int64(size.households*ct) {
			r.check(fmt.Errorf("round accepted %d readings, %d were sent", stats.Accepted, size.households*ct))
		}
		return nil
	}

	k := 0
	timed := func() (*streamStats, error) {
		st := &streamStats{stage: map[pipeline.State][]float64{}}
		err := loop(e.seconds, func() error {
			k++
			r.attempted += size.windows
			return round(st, k)
		})
		return st, err
	}

	if err := round(&streamStats{stage: map[pipeline.State][]float64{}}, 0); err != nil { // warm-up, untimed
		return err
	}
	st, err := timed()
	if err != nil {
		return err
	}
	p50 := median(st.lat)
	if !e.trace {
		r.metrics["setup_s"] = median(st.setups)
		r.metrics["latency_p50_ms"] = p50
		r.metrics["latency_tail_ms"] = percentile(st.lat, 90)
		r.metrics["throughput_per_s"] = median(st.roundRate)
		r.metrics["mre_random_pct"] = st.mreSum / float64(st.windows)
		r.metrics["max_rss_mb"] = maxRSSMiB()
		e.logf("stream: %d windows in %d rounds, p50 %.1f ms, %.0f readings/s, %.1f%% of the timed wall clock stolen",
			st.windows, st.rounds, p50, r.metrics["throughput_per_s"], 100*(1-st.busy.Seconds()/st.wall.Seconds()))
		return nil
	}

	var prof cpuProfile
	if err := prof.start(); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := timed()
	runtime.ReadMemStats(&after)
	byPkg, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	n := float64(tr.windows)
	r.metrics["ingest.ingest_ms"] = median(tr.ingestMS)
	r.metrics["ingest.wal_batches"] = float64(tr.batches) / n
	r.metrics["ingest.compact_ms"] = median(tr.compactMS)
	r.metrics["ingest.snapshot_mb"] = median(tr.snapMB)
	r.metrics["ingest.quarantined"] = float64(tr.quarantined) / float64(tr.rounds)
	for metric, state := range map[string]pipeline.State{
		"pipeline.cut_ms": pipeline.StateCut, "pipeline.release_ms": pipeline.StateReleased,
		"pipeline.charge_ms": pipeline.StateCharged, "pipeline.publish_ms": pipeline.StatePublished,
		"pipeline.reload_ms": pipeline.StateReloaded,
	} {
		r.metrics[metric] = median(tr.stage[state])
	}
	r.metrics["pipeline.window_kb"] = median(tr.windowKB)
	r.metrics["pipeline.steps_per_window"] = float64(tr.steps) / n
	r.metrics["serve.reload_ms"] = median(tr.reloadMS)
	r.metrics["serve.verify_us"] = median(tr.verifyUS)
	r.metrics["dp.ledger_entries"] = float64(tr.ledgerEntries) / float64(tr.rounds)
	r.metrics["runtime.gc_per_op"] = float64(after.NumGC-before.NumGC) / n
	r.metrics["host.steal_pct"] = 100 * (1 - tr.busy.Seconds()/tr.wall.Seconds())
	putCPU(r, byPkg, tr.windows)
	r.metrics["trace.overhead_pct"] = 100 * (median(tr.lat)/p50 - 1)
	return nil
}

// checkCutFile checks window w's frozen cut, read back from staging.
func checkCutFile(out string, w int, want *grid.Matrix) error {
	f, err := os.Open(pipeline.CutPath(out, w))
	if err != nil {
		return fmt.Errorf("window %d cut: %v", w, err)
	}
	defer f.Close()
	got, err := parseMatrixCSV(f, want.Cx, want.Cy, want.Ct)
	if err != nil {
		return fmt.Errorf("window %d cut: %v", w, err)
	}
	return checkCut(w, got, want)
}
