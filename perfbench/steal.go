package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"time"
)

// On a shared virtual machine the host takes a vCPU away now and then,
// and the guest sees that as steal time. Over a run it can reach a
// third of the wall clock, and it comes and goes between runs, so an
// operation of tens of milliseconds or more is timed as its wall time
// less the steal that accrued meanwhile, averaged over the CPUs. A
// sub-millisecond request is timed by the wall clock alone: steal hits
// too few of them to move a median.

// userHZ is the unit of /proc/stat's counters on Linux.
const userHZ = 100

// stealTime reads the steal accrued so far, averaged over the CPUs. It
// returns 0 where /proc/stat is not there to read.
func stealTime() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var ticks, cpus int64
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		// Per-CPU lines: cpuN user nice system idle iowait irq softirq steal ...
		if len(f) < 9 || !bytes.HasPrefix(f[0], []byte("cpu")) || len(f[0]) == 3 {
			continue
		}
		n, err := strconv.ParseInt(string(f[8]), 10, 64)
		if err != nil {
			return 0
		}
		ticks += n
		cpus++
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(ticks) * (time.Second / userHZ) / time.Duration(cpus)
}

// stopwatch times one span as wall time less steal.
type stopwatch struct {
	start time.Time
	steal time.Duration
}

func startWatch() stopwatch {
	s := stealTime()
	return stopwatch{start: time.Now(), steal: s}
}

// stop returns the span's wall time and its wall time less steal.
func (w stopwatch) stop() (wall, unstolen time.Duration) {
	wall = time.Since(w.start)
	unstolen = wall - (stealTime() - w.steal)
	if unstolen < 0 {
		unstolen = 0
	}
	return wall, unstolen
}
