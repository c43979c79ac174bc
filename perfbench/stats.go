package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// sortedCopy returns the samples in ascending order, leaving them be.
func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, or 0 for none.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle of samples (the mean of the two middle
// values for an even count), or 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(data, n=4) gives with its default exclusive
// method, so the steadiness report matches how the figures are judged.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	s := sortedCopy(samples)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// maxRSSMiB is the process's peak resident set so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var referenceSink float64

// referenceMS times a fixed floating-point loop in the benchmark's own
// code (median of three). It does not touch the program, so a change in
// it between runs is the machine drifting, not the code.
func referenceMS() float64 {
	var t [3]float64
	for r := range t {
		start := time.Now()
		x := 1.0
		for i := 0; i < 10_000_000; i++ {
			x = math.Sqrt(x*1.0000001 + float64(i&7))
		}
		referenceSink += x
		t[r] = ms(time.Since(start))
	}
	return median(t[:])
}

// loop runs whole rounds until the run's time is used: a further round
// starts only when it is expected to end within half a round of the
// deadline, and at least one round always runs. Time a round spends on
// output checks counts against the deadline too.
func loop(seconds time.Duration, round func() error) error {
	start := time.Now()
	for {
		r0 := time.Now()
		if err := round(); err != nil {
			return err
		}
		last := time.Since(r0)
		if time.Since(start)+last/2 >= seconds {
			return nil
		}
	}
}
