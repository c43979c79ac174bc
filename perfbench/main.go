// Command perfbench is the repository's end-to-end benchmark. It drives
// the program in-process through its public packages on one of three
// workloads and prints, as the last line of standard output, one JSON
// object: whether every output check passed, the operations attempted
// and failed, and the metrics — the end-to-end ones by default, the
// per-layer ones with -trace 1.
//
//	perfbench -workload release|query|stream -seed N -seconds S -trace 0|1
//	perfbench steady -workload W -runs N [-seconds S] [-trace 0|1]
//
// Build and run it through run.sh from the repository root, which keeps
// the build and every file the run writes under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is what a workload gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string    // scratch directory owned by this run
	log     io.Writer // human-readable progress; never the result line
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
}

// report is one run's outcome. failed counts operations the program
// refused or errored on; checkFails counts failed output checks, the
// first of which are kept in checkErrs.
type report struct {
	attempted, failed int
	checkFails        int
	checkErrs         []string
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check records a failed output check.
func (r *report) check(err error) {
	if err == nil {
		return
	}
	r.checkFails++
	if len(r.checkErrs) < 10 {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
}

// workloadFunc runs one workload. With e.trace it fills the per-layer
// metrics, otherwise the end-to-end ones.
type workloadFunc func(ctx context.Context, e *env, r *report) error

var workloads = map[string]workloadFunc{
	"release": runRelease,
	"query":   runQuery,
	"stream":  runStream,
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "steady" {
		return runSteady(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: release, query or stream")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 25, "length of the timed loop in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload release|query|stream, -seconds >= 1 and -trace 0|1 (got %q, %d, %d)\n", *name, *seconds, *trace)
		return 2
	}
	dir := filepath.Join(".bench_build", "state", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir, log: stderr}
	e.logf("reference_ms=%.3f", referenceMS())
	r := newReport()
	if err := wl(context.Background(), e, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	line, err := resultLine(r, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, msg := range r.checkErrs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", msg)
	}
	if more := r.checkFails - len(r.checkErrs); more > 0 {
		fmt.Fprintf(stderr, "perfbench: ... %d more failed checks\n", more)
	}
	fmt.Fprintln(stdout, line)
	if r.checkFails > 0 {
		return 1
	}
	return 0
}

// resultLine renders the result object. Every metric of defs appears;
// a layer the workload never calls reads 0.
func resultLine(r *report, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.checkFails == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		out.Metrics[d.name] = value{Value: r.metrics[d.name], Unit: d.unit}
	}
	var stray []string
	for k := range r.metrics {
		if !known[k] {
			stray = append(stray, k)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return "", fmt.Errorf("workload set undeclared metrics %s", strings.Join(stray, ", "))
	}
	b, err := json.Marshal(out)
	return string(b), err
}
