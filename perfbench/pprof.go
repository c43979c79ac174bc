package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile records a CPU profile of whatever runs between start and
// stop and attributes its samples to packages.
type cpuProfile struct{ buf bytes.Buffer }

func (p *cpuProfile) start() error { return pprof.StartCPUProfile(&p.buf) }

// stop ends the profile and returns self CPU seconds by package path
// (the package of each sample's innermost frame, inlined frames
// included).
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return selfCPUByPackage(p.buf.Bytes())
}

// selfCPUByPackage decodes a gzipped pprof CPU profile with just enough
// of the profile.proto schema to sum each sample's CPU nanoseconds onto
// the package of its leaf function.
func selfCPUByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf uint64
		ns   int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}  // function id -> string index
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], ns: vals[len(vals)-1]})
			}
		case 4: // Location
			var id, fn uint64
			first := true
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost inlined frame
					if first {
						first = false
						return eachField(b, func(f, w int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		idx := funcName[locFunc[s.leaf]]
		if idx < 0 || int(idx) >= len(strs) {
			continue
		}
		out[packageOf(strs[idx])] += float64(s.ns) / 1e9
	}
	return out, nil
}

// packageOf cuts a symbol such as "repro/internal/nn.(*GRU).Forward" to
// its package path "repro/internal/nn".
func packageOf(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// appendVarints collects a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("cpu profile: malformed protobuf")

// eachField walks one protobuf message, passing varint values in v and
// length-delimited payloads in b. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// cpuLayers maps the per-layer cpu.* metrics to the packages they sum.
var cpuLayers = map[string]string{
	"cpu.core_s":       "repro/internal/core",
	"cpu.nn_s":         "repro/internal/nn",
	"cpu.mat_s":        "repro/internal/mat",
	"cpu.math_s":       "math",
	"cpu.quadtree_s":   "repro/internal/quadtree",
	"cpu.dp_s":         "repro/internal/dp",
	"cpu.timeseries_s": "repro/internal/timeseries",
	"cpu.runtime_s":    "runtime",
}

// putCPU stores the profile's per-package self CPU, per operation.
func putCPU(r *report, byPkg map[string]float64, ops int) {
	if ops == 0 {
		return
	}
	for metric, pkg := range cpuLayers {
		r.metrics[metric] = byPkg[pkg] / float64(ops)
	}
}
