package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSteady runs a workload in fresh processes, one seed each, and
// prints for every end-to-end metric the median, the quartiles and the spread
// (q3-q1)/median against the metric's bound, with the time of the
// reference loop each run took, so machine drift shows apart from the
// program.
func runSteady(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "fresh processes to run, with seeds 1 to runs")
	seconds := fs.Int("seconds", 25, "length of each run's timed loop")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *runs < 2 {
		fmt.Fprintf(stderr, "perfbench steady: want -workload release|query|stream and -runs >= 2\n")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench steady: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	var refs []float64
	fmt.Fprintf(stdout, "%-5s %6s %10s %8s %8s %12s\n", "run", "seed", "attempted", "failed", "correct", "reference_ms")
	for i := 0; i < *runs; i++ {
		seed := i + 1
		cmd := exec.Command(self, "-workload", *name, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(*seconds), "-trace", "0")
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		runErr := cmd.Run()
		res, perr := lastResult(out.Bytes())
		if runErr != nil || perr != nil {
			fmt.Fprintf(stderr, "perfbench steady: run %d (seed %d): %v %v\n%s", i, seed, runErr, perr, errb.String())
			return 1
		}
		ref := referenceFrom(errb.String())
		refs = append(refs, ref)
		fmt.Fprintf(stdout, "%-5d %6d %10d %8d %8v %12.3f\n", i, seed, res.Attempted, res.Failed, res.Correct, ref)
		for _, d := range endToEnd {
			values[d.name] = append(values[d.name], res.Metrics[d.name].Value)
		}
	}
	fmt.Fprintf(stdout, "\n%-26s %-6s %14s %14s %14s %8s %6s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
	row := func(name, unit string, vals []float64, bound float64) {
		q1, q2, q3 := quartiles(vals)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		verdict := ""
		if bound > 0 {
			switch {
			case spread < bound/3:
				verdict = "steady"
			case spread <= bound:
				verdict = "within bound"
			default:
				verdict = "TOO WIDE"
			}
		}
		fmt.Fprintf(stdout, "%-26s %-6s %14.6g %14.6g %14.6g %8.4f %6.3g  %s\n", name, unit, q2, q1, q3, spread, bound, verdict)
	}
	for _, d := range endToEnd {
		row(d.name, d.unit, values[d.name], d.bound)
	}
	row("reference_ms", "ms", refs, 0)
	return 0
}

// runResult is the result line a run prints last.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastResult(stdout []byte) (*runResult, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// referenceFrom finds the reference_ms a run logged.
func referenceFrom(stderr string) float64 {
	sc := bufio.NewScanner(strings.NewReader(stderr))
	for sc.Scan() {
		if _, v, ok := strings.Cut(sc.Text(), "reference_ms="); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}
