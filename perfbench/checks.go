package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/timeseries"
)

// The checks below compare the program's outputs with computations made
// here from the benchmark's own inputs, or with properties the method
// guarantees. They run outside every timed span.

// naiveSum is a range sum by direct triple loop, with the sum of
// absolute values that bounds its rounding.
func naiveSum(m *grid.Matrix, q grid.Query) (sum, abs float64) {
	for t := q.T0; t <= q.T1; t++ {
		for y := q.Y0; y <= q.Y1; y++ {
			for x := q.X0; x <= q.X1; x++ {
				v := m.At(x, y, t)
				sum += v
				abs += math.Abs(v)
			}
		}
	}
	return sum, abs
}

func absTotal(m *grid.Matrix) float64 {
	var s float64
	for _, v := range m.Data() {
		s += math.Abs(v)
	}
	return s
}

// naiveMRE scores a release on queries by the paper's rule (Eq. 5) as
// query.Evaluate documents it: queries whose true answer falls below
// max(1, 0.1% of the mean cell mass times the volume) are skipped, the
// rest contribute 100·|truth-release|/|truth|.
func naiveMRE(truth, rel *grid.Matrix, qs []grid.Query) float64 {
	var total float64
	for _, v := range truth.Data() {
		total += v
	}
	perCell := total * 0.001 / float64(truth.Len())
	var sum float64
	n := 0
	for _, q := range qs {
		floor := math.Max(1, perCell*float64(q.Volume()))
		t, _ := naiveSum(truth, q)
		if t < floor {
			continue
		}
		r, _ := naiveSum(rel, q)
		sum += 100 * math.Abs(t-r) / math.Abs(t)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// horizonTruth sums the dataset's released horizon into a matrix.
func horizonTruth(d *timeseries.Dataset, tTrain int) *grid.Matrix {
	m := grid.NewMatrix(d.Cx, d.Cy, d.T()-tTrain)
	for _, s := range d.Series {
		for t := tTrain; t < d.T(); t++ {
			m.AddAt(s.Location.X, s.Location.Y, t-tTrain, s.Values[t])
		}
	}
	return m
}

// checkRelease checks one STPT release: its shape and finiteness, that
// the accountant composed exactly ε_pattern + ε_sanitize, that it beats
// the Identity baseline on the random class, that the MRE the program
// reported is the MRE recomputed here, and that the range-sum index
// agrees with a naive sum on a sample of queries.
func checkRelease(in *releaseInput, op *releaseOp, sample int, rng *rand.Rand) error {
	rel := op.res.Sanitized
	name := in.spec.Name
	cx, cy, ct := in.data.Cx, in.data.Cy, in.data.T()-in.cfg.TTrain
	if rel.Cx != cx || rel.Cy != cy || rel.Ct != ct {
		return fmt.Errorf("release %s is %dx%dx%d, want %dx%dx%d", name, rel.Cx, rel.Cy, rel.Ct, cx, cy, ct)
	}
	for i, v := range rel.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("release %s: cell %d is %v", name, i, v)
		}
	}
	if got, want := op.res.Accountant.TotalEpsilon(), in.cfg.EpsPattern+in.cfg.EpsSanitize; math.Abs(got-want) > 1e-9*want {
		return fmt.Errorf("release %s: accountant composed ε=%v, want %v", name, got, want)
	}
	truth := horizonTruth(in.data, in.cfg.TTrain)
	mre := naiveMRE(truth, rel, in.qs[query.Random])
	if mre >= in.identity {
		return fmt.Errorf("release %s: random MRE %.3f%% is not below Identity's %.3f%%", name, mre, in.identity)
	}
	if got := op.mre[query.Random]; math.Abs(got-mre) > 1e-6*math.Max(1, mre) {
		return fmt.Errorf("release %s: program reported random MRE %.6f%%, recomputed %.6f%%", name, got, mre)
	}
	idx := grid.NewTileIndex(rel)
	tol := 1e-9 * math.Max(1, absTotal(rel))
	for i := 0; i < sample; i++ {
		q := randomBox(rng, cx, cy, ct)
		want, _ := naiveSum(rel, q)
		if got := idx.RangeSum(q); math.Abs(got-want) > tol {
			return fmt.Errorf("release %s: range sum %+v = %v, naive sum %v", name, q, got, want)
		}
	}
	return nil
}

// randomBox draws a box uniformly by its two corners on each axis.
func randomBox(rng *rand.Rand, cx, cy, ct int) grid.Query {
	span := func(n int) (int, int) {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		return a, b
	}
	var q grid.Query
	q.X0, q.X1 = span(cx)
	q.Y0, q.Y1 = span(cy)
	q.T0, q.T1 = span(ct)
	return q
}

// answer is the part of a /query response the checks read.
type answer struct {
	Dataset string     `json:"dataset"`
	Query   grid.Query `json:"query"`
	Sum     float64    `json:"sum"`
	Cells   int        `json:"cells"`
}

// checkAnswer checks one served answer against the matrix the benchmark
// generated: the box answered is the box asked, cells is its volume and
// sum is the naive sum over it. tol bounds the index's rounding.
func checkAnswer(a answer, name string, q grid.Query, m *grid.Matrix, tol float64) error {
	if a.Dataset != name || a.Query != q {
		return fmt.Errorf("asked %s %+v, answered %s %+v", name, q, a.Dataset, a.Query)
	}
	if a.Cells != q.Volume() {
		return fmt.Errorf("%s %+v: cells %d, box volume %d", name, q, a.Cells, q.Volume())
	}
	want, _ := naiveSum(m, q)
	if math.Abs(a.Sum-want) > tol {
		return fmt.Errorf("%s %+v: sum %v, naive sum %v", name, q, a.Sum, want)
	}
	return nil
}

// checkCut checks a frozen window cut cell by cell against the sums the
// benchmark made of the readings it sent before the cut.
func checkCut(w int, got, want *grid.Matrix) error {
	if got.Cx != want.Cx || got.Cy != want.Cy || got.Ct != want.Ct {
		return fmt.Errorf("window %d cut is %dx%dx%d, want %dx%dx%d", w, got.Cx, got.Cy, got.Ct, want.Cx, want.Cy, want.Ct)
	}
	g, x := got.Data(), want.Data()
	for i := range g {
		if math.Abs(g[i]-x[i]) > 1e-9*math.Max(1, math.Abs(x[i])) {
			return fmt.Errorf("window %d cut cell %d = %v, readings sent before the cut sum to %v", w, i, g[i], x[i])
		}
	}
	return nil
}

// checkLedger checks the tree-composed spend after n windows:
// ε_node·(⌊log₂ n⌋+1).
func checkLedger(n int, spent, epsNode float64) error {
	want := epsNode * float64(bits.Len(uint(n)))
	if math.Abs(spent-want) > 1e-9*want {
		return fmt.Errorf("ledger spend after %d windows is %v, want ε_node·(⌊log₂ n⌋+1) = %v", n, spent, want)
	}
	return nil
}

// checkWindowTotal checks the served total of a window against the sum
// of its published file, and that total against the true total within
// a Laplace tail bound: the sum S of n independent Laplace(b) draws
// obeys P(|S| ≥ t) ≤ 2·exp(-t²/(8nb²)) for t ≤ 2nb, so t = 12·b·√n
// fails by chance with probability below 1e-7.
func checkWindowTotal(w int, served, fileSum, trueSum float64, cells int, scale float64) error {
	if math.Abs(served-fileSum) > 1e-9*math.Max(1, math.Abs(fileSum)) {
		return fmt.Errorf("window %d: served total %v, published file sums to %v", w, served, fileSum)
	}
	if bound := 12 * scale * math.Sqrt(float64(cells)); math.Abs(served-trueSum) > bound {
		return fmt.Errorf("window %d: served total %v is %v from the true total %v, past the Laplace tail bound %v",
			w, served, served-trueSum, trueSum, bound)
	}
	return nil
}

// parseMatrixCSV reads the x,y,t,value release format into a matrix of
// the given shape, independently of the program's own loader.
func parseMatrixCSV(r io.Reader, cx, cy, ct int) (*grid.Matrix, error) {
	m := grid.NewMatrix(cx, cy, ct)
	seen := make([]bool, m.Len())
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		if line == 1 {
			if sc.Text() != "x,y,t,value" {
				return nil, fmt.Errorf("header %q", sc.Text())
			}
			continue
		}
		f := strings.Split(sc.Text(), ",")
		if len(f) != 4 {
			return nil, fmt.Errorf("line %d: %q", line, sc.Text())
		}
		var c [3]int
		for i := range c {
			n, err := strconv.Atoi(f[i])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			c[i] = n
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		if c[0] < 0 || c[0] >= cx || c[1] < 0 || c[1] >= cy || c[2] < 0 || c[2] >= ct {
			return nil, fmt.Errorf("line %d: cell %v outside %dx%dx%d", line, c, cx, cy, ct)
		}
		i := (c[2]*cy+c[1])*cx + c[0]
		if seen[i] {
			return nil, fmt.Errorf("line %d: cell %v repeated", line, c)
		}
		seen[i] = true
		m.Set(c[0], c[1], c[2], v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("cell %d missing", i)
		}
	}
	return m, nil
}
