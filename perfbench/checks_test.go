package main

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/query"
)

func tinyRelease() releaseSize {
	o := experiments.Quick()
	o.Cx, o.Cy, o.TTrain, o.Horizon = 8, 8, 20, 60
	o.Depth, o.WindowSize, o.QuantLevels = 2, 3, 4
	o.EmbedDim, o.Hidden, o.Epochs, o.Queries = 4, 4, 2, 30
	return releaseSize{opts: o, specs: []datasets.Spec{datasets.CA, datasets.TX}, setupReps: 1, checkQs: 10}
}

func TestReleaseCheckFailsOnScaledRelease(t *testing.T) {
	inputs, _, err := prepareRelease(tinyRelease())
	if err != nil {
		t.Fatal(err)
	}
	in := inputs[0]
	op, err := releaseOnce(context.Background(), in, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := checkRelease(in, op, 10, rng); err != nil {
		t.Fatalf("untouched release fails its check: %v", err)
	}
	op.res.Sanitized.Scale(3)
	if err := checkRelease(in, op, 10, rng); err == nil {
		t.Fatal("a release scaled by 3 passes its check")
	}
}

func TestAnswerCheckFailsOnWrongAnswer(t *testing.T) {
	m := grid.NewMatrix(4, 4, 4)
	for i := range m.Data() {
		m.Data()[i] = float64(i%7) + 0.5
	}
	q := grid.Query{X0: 1, X1: 2, Y0: 0, Y1: 3, T0: 1, T1: 1}
	sum, _ := naiveSum(m, q)
	good := answer{Dataset: "d", Query: q, Sum: sum, Cells: q.Volume()}
	if err := checkAnswer(good, "d", q, m, 1e-9); err != nil {
		t.Fatalf("right answer fails: %v", err)
	}
	for name, bad := range map[string]answer{
		"sum":     {Dataset: "d", Query: q, Sum: sum + 0.5, Cells: q.Volume()},
		"cells":   {Dataset: "d", Query: q, Sum: sum, Cells: q.Volume() + 1},
		"box":     {Dataset: "d", Query: grid.Query{X1: 2, Y1: 3, T0: 1, T1: 1}, Sum: sum, Cells: q.Volume()},
		"dataset": {Dataset: "e", Query: q, Sum: sum, Cells: q.Volume()},
	} {
		if err := checkAnswer(bad, "d", q, m, 1e-9); err == nil {
			t.Errorf("answer with a wrong %s passes", name)
		}
	}
}

func TestCutCheckFailsOnDroppedReading(t *testing.T) {
	size := tinyStream()
	in := makeStreamInput(3, size)
	want := in.cuts[1]
	got := grid.NewMatrix(want.Cx, want.Cy, want.Ct)
	copy(got.Data(), want.Data())
	if err := checkCut(2, got, want); err != nil {
		t.Fatalf("exact cut fails: %v", err)
	}
	// Drop one reading: its cell loses at least the smallest reading.
	got.Data()[5] -= 0.01
	if err := checkCut(2, got, want); err == nil {
		t.Fatal("a cut missing a reading passes")
	}
}

func TestStreamInputExcludesReadingsPastTheCut(t *testing.T) {
	size := tinyStream()
	in := makeStreamInput(3, size)
	var cutTotal float64
	for _, c := range in.cuts {
		cutTotal += c.Total()
	}
	var sent float64
	for _, call := range in.calls {
		m, err := parseReadings(call, size)
		if err != nil {
			t.Fatal(err)
		}
		sent += m
	}
	if cutTotal >= sent {
		t.Fatalf("cuts hold %v of the %v sent: no reading arrived after its window was cut", cutTotal, sent)
	}
}

func TestLedgerCheckFailsOnOverCharge(t *testing.T) {
	for n, spent := range map[int]float64{1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4} {
		if err := checkLedger(n, spent, 1); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if err := checkLedger(n, spent+1, 1); err == nil {
			t.Errorf("n=%d: over-charged ledger passes", n)
		}
	}
}

func TestWindowTotalCheck(t *testing.T) {
	if err := checkWindowTotal(1, 1000, 1000, 990, 100, 1); err != nil {
		t.Fatalf("noise within the tail bound fails: %v", err)
	}
	if err := checkWindowTotal(1, 1000, 1001, 990, 100, 1); err == nil {
		t.Error("served total differing from the file passes")
	}
	if err := checkWindowTotal(1, 1200, 1200, 990, 100, 1); err == nil {
		t.Error("total past the Laplace tail bound passes")
	}
}

func TestNaiveMREMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truth, rel := grid.NewMatrix(8, 8, 6), grid.NewMatrix(8, 8, 6)
	for i := range truth.Data() {
		truth.Data()[i] = 10 + 5*rng.Float64()
		rel.Data()[i] = truth.Data()[i] + rng.NormFloat64()
	}
	qs := query.GenerateSeeded(1, query.Random, 8, 8, 6, 50)
	got, want := naiveMRE(truth, rel, qs), query.Evaluate(truth, rel, qs, 0)
	if d := got - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("naiveMRE %v, query.Evaluate %v", got, want)
	}
}
