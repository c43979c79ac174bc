package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
)

func tinyQuery() querySize {
	return querySize{cx: 16, cy: 16, ct: 12, specs: []datasets.Spec{datasets.CA, datasets.TX}, perClass: 5, evalQs: 20,
		setupReps: 1, calibrate: 50, answerLoop: 10 * time.Millisecond}
}

func tinyStream() streamSize {
	return streamSize{cx: 4, cy: 4, households: 50, window: 4, windows: 3, batch: 16,
		malformed: 2, lateShare: 0.2, maxDelay: 2, compactEvery: 2, epsNode: 1, maxReading: 5, evalQs: 10}
}

// parseReadings sums the valid readings of one Ingest payload.
func parseReadings(call []byte, size streamSize) (float64, error) {
	var sum float64
	for _, line := range strings.Split(strings.TrimSpace(string(call)), "\n") {
		f := strings.Split(line, ",")
		if len(f) != 4 {
			continue
		}
		x, ex := strconv.Atoi(f[0])
		y, ey := strconv.Atoi(f[1])
		tt, et := strconv.Atoi(f[2])
		v, ev := strconv.ParseFloat(f[3], 64)
		if ex != nil || ey != nil || et != nil || ev != nil || x < 0 || x >= size.cx || y < 0 || y >= size.cy ||
			tt < 0 || tt >= size.window*size.windows || v < 0 || math.IsNaN(v) {
			continue
		}
		sum += v
	}
	return sum, nil
}

// TestSmoke runs every workload end to end at a tiny size, untraced and
// traced, and demands that each passes its checks with no failed
// operation and reports every metric.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for name, fn := range map[string]func(*env, *report) error{
		"release": func(e *env, r *report) error { return releaseWorkload(ctx, e, r, tinyRelease()) },
		"query":   func(e *env, r *report) error { return queryWorkload(ctx, e, r, tinyQuery()) },
		"stream":  func(e *env, r *report) error { return streamWorkload(ctx, e, r, tinyStream()) },
	} {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 2, seconds: time.Millisecond, trace: traced, dir: t.TempDir(), log: testLog{t}}
			r := newReport()
			if err := fn(e, r); err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if r.checkFails > 0 || r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%s (traced %v): checks %v, %d of %d failed", name, traced, r.checkErrs, r.failed, r.attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			line, err := resultLine(r, defs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var res runResult
			if err := json.Unmarshal([]byte(line), &res); err != nil || len(res.Metrics) != len(defs) {
				t.Fatalf("%s: result line %s: %v", name, line, err)
			}
			if !traced {
				for _, d := range endToEnd {
					if v := r.metrics[d.name]; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, v)
					}
				}
			}
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestBenchmarkJSON holds BENCHMARK.json to the metrics the benchmark
// prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
}
