package main

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/nn.(*GRU).Forward":      "repro/internal/nn",
		"repro/internal/mat.kernel4x4":          "repro/internal/mat",
		"math.Exp":                              "math",
		"math/bits.Len":                         "math/bits",
		"runtime.mallocgc":                      "runtime",
		"repro/internal/parallel.Do[...].func1": "repro/internal/parallel",
		"main.spin":                             "main",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

var spinSink float64

//go:noinline
func spin(d time.Duration) {
	x := 1.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + 1)
		}
	}
	spinSink = x
}

func TestSelfCPUByPackage(t *testing.T) {
	var p cpuProfile
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	byPkg, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range byPkg {
		total += s
	}
	pkg := packageOf(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	if byPkg[pkg] < 0.5*total || total < 0.1 {
		t.Fatalf("self CPU by package %v: want most of ~0.3 s in %s", byPkg, pkg)
	}
}
