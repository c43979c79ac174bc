package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/timeseries"
)

// releaseSize is the release workload's testbed.
type releaseSize struct {
	opts      experiments.Options // grid, split, budgets, queries and network size
	specs     []datasets.Spec
	setupReps int // times the datasets are synthesised; setup_s is the median
	checkQs   int // boxes per release whose range sums are checked naively
}

// paperRelease is the paper's testbed (32x32 grid, 100 training and 120
// released days, ε 10/20, 300 queries per class) at the network size
// stpt-bench uses, on the four Table 2 datasets.
func paperRelease() releaseSize {
	return releaseSize{opts: experiments.Bench(), specs: datasets.All(), setupReps: 3, checkQs: 50}
}

// releaseInput is one dataset with everything drawn for it up front.
type releaseInput struct {
	spec     datasets.Spec
	data     *timeseries.Dataset
	truth    *grid.Matrix // the released horizon, unclipped, as the paper scores it
	cfg      core.Config
	qs       map[query.Class][]grid.Query
	identity float64 // Identity baseline's random-class MRE on the same data
}

// prepareRelease synthesises the datasets setupReps times, timing each
// pass (the data owner's set-up), and draws each dataset's queries and
// Identity baseline (the benchmark's own, untimed).
func prepareRelease(size releaseSize) ([]*releaseInput, []float64, error) {
	o := size.opts
	var data []*timeseries.Dataset
	var genS []float64
	for rep := 0; rep < size.setupReps; rep++ {
		// Each pass starts from a collected heap, so neither its time nor
		// the peak RSS depends on when the previous pass's garbage goes.
		data = nil
		runtime.GC()
		sw := startWatch()
		for _, spec := range size.specs {
			data = append(data, spec.GenerateDaily(datasets.Uniform, o.Cx, o.Cy, o.TTrain+o.Horizon, o.Seed))
		}
		_, d := sw.stop()
		genS = append(genS, d.Seconds())
	}
	var inputs []*releaseInput
	for i, spec := range size.specs {
		in := &releaseInput{spec: spec, data: data[i], cfg: o.STPTConfig(spec), qs: map[query.Class][]grid.Query{}}
		in.cfg.Workers = runtime.NumCPU()
		for ci, c := range query.Classes() {
			in.qs[c] = query.GenerateSeeded(o.Seed+int64(100+ci), c, o.Cx, o.Cy, o.Horizon, o.Queries)
		}
		bin := baselines.Input{Dataset: in.data, TTrain: o.TTrain, CellSensitivity: spec.DailyClip()}
		in.truth = bin.Truth()
		idRel, err := baselines.NewIdentity().Release(bin, o.EpsPattern+o.EpsSanitize, o.Seed)
		if err != nil {
			return nil, nil, fmt.Errorf("identity baseline on %s: %w", spec.Name, err)
		}
		in.identity = naiveMRE(in.truth, idRel, in.qs[query.Random])
		inputs = append(inputs, in)
	}
	return inputs, genS, nil
}

// releaseOp is one operation's output and timings, steal taken out.
type releaseOp struct {
	res            *core.Result
	mre            map[query.Class]float64
	wall           time.Duration // total, steal left in
	total, run, ev time.Duration
	allocMB        float64
	gcCycles       uint32
}

// releaseOnce is one operation: publish the dataset with STPT and score
// the release on the three query classes. traced adds allocation and GC
// counts around the pipeline.
func releaseOnce(ctx context.Context, in *releaseInput, traced bool) (*releaseOp, error) {
	var before, after runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	sw := startWatch()
	res, err := core.RunContext(ctx, in.data, in.cfg)
	_, run := sw.stop()
	if err != nil {
		return nil, err
	}
	if traced {
		runtime.ReadMemStats(&after)
	}
	ev := query.NewEvaluator(in.truth, res.Sanitized)
	mre := map[query.Class]float64{}
	for _, c := range query.Classes() {
		mre[c] = ev.Evaluate(in.qs[c], 0, 1)
	}
	wall, total := sw.stop()
	return &releaseOp{
		res: res, mre: mre, wall: wall, total: total, run: run, ev: total - run,
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcCycles: after.NumGC - before.NumGC,
	}, nil
}

func runRelease(ctx context.Context, e *env, r *report) error {
	return releaseWorkload(ctx, e, r, paperRelease())
}

// releaseWorkload is batch STPT publication as a data owner runs it.
// The datasets and the STPT seed are fixed so every run does identical
// work (a training retry would rerun the whole pipeline); the run's seed
// picks the order the datasets go in and the boxes checked naively.
func releaseWorkload(ctx context.Context, e *env, r *report, size releaseSize) error {
	inputs, genS, err := prepareRelease(size)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	order := rng.Perm(len(inputs))
	runtime.GC()

	// One untimed operation first, so lazy set-up and caches are warm.
	if _, err := releaseOnce(ctx, inputs[order[0]], false); err != nil {
		return fmt.Errorf("warm-up release: %w", err)
	}

	type loopStats struct {
		ops        []*releaseOp
		lat        []float64
		wall, busy time.Duration
		cells      int
		mreSum     float64
	}
	timed := func(traced bool) (*loopStats, error) {
		st := &loopStats{}
		err := loop(e.seconds, func() error {
			for _, i := range order {
				in := inputs[i]
				r.attempted++
				op, err := releaseOnce(ctx, in, traced)
				if err != nil {
					r.failed++
					e.logf("release %s failed: %v", in.spec.Name, err)
					continue
				}
				st.ops = append(st.ops, op)
				st.lat = append(st.lat, ms(op.total))
				st.wall += op.wall
				st.busy += op.total
				st.cells += op.res.Sanitized.Len()
				st.mreSum += op.mre[query.Random]
				r.check(checkRelease(in, op, size.checkQs, rng))
			}
			return nil
		})
		if err == nil && len(st.ops) == 0 {
			err = fmt.Errorf("no release succeeded")
		}
		return st, err
	}

	st, err := timed(false)
	if err != nil {
		return err
	}
	p50 := median(st.lat)
	if !e.trace {
		r.metrics["setup_s"] = median(genS)
		r.metrics["latency_p50_ms"] = p50
		// Too few releases per run for a percentile tail: the slowest one.
		r.metrics["latency_tail_ms"] = percentile(st.lat, 100)
		r.metrics["throughput_per_s"] = float64(st.cells) / st.busy.Seconds()
		r.metrics["mre_random_pct"] = st.mreSum / float64(len(st.ops))
		r.metrics["max_rss_mb"] = maxRSSMiB()
		for _, op := range st.ops {
			e.logf("release: %.0f ms (%.0f ms with steal), attempts %d, random MRE %.3f%%",
				ms(op.total), ms(op.wall), op.res.Recovery.Attempts, op.mre[query.Random])
		}
		return nil
	}

	var prof cpuProfile
	if err := prof.start(); err != nil {
		return err
	}
	tr, err := timed(true)
	byPkg, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	n := float64(len(tr.ops))
	var run, ev, alloc, attempts, gc float64
	for _, op := range tr.ops {
		run += op.run.Seconds()
		ev += ms(op.ev)
		alloc += op.allocMB
		attempts += float64(op.res.Recovery.Attempts)
		gc += float64(op.gcCycles)
	}
	r.metrics["datasets.generate_s"] = median(genS)
	r.metrics["core.run_s"] = run / n
	r.metrics["core.attempts"] = attempts / n
	r.metrics["core.alloc_mb"] = alloc / n
	r.metrics["query.evaluate_ms"] = ev / n
	r.metrics["runtime.gc_per_op"] = gc / n
	r.metrics["host.steal_pct"] = 100 * (1 - tr.busy.Seconds()/tr.wall.Seconds())
	putCPU(r, byPkg, len(tr.ops))
	r.metrics["trace.overhead_pct"] = 100 * (median(tr.lat)/p50 - 1)
	return nil
}
