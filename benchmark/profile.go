package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the cpu_share buckets: the repository's internal packages
// that the workloads reach, the Go runtime, and everything else.
var cpuLayers = []string{
	"sim", "soc", "noc", "mem", "cache", "lock", "rt", "workloads", "sweep", "stats",
	"litmus", "core", "conform", "spec", "fuzz", "pmcd", "go_runtime", "other",
}

// layerOf buckets one CPU sample by its deepest pmc/internal/<pkg> frame.
// frames are function names, leaf first. A sample with no such frame is
// go_runtime when its leaf is in the runtime (the garbage collector's
// workers, the scheduler, and the coroutine switches of the simulation
// kernel, which run on the system stack with no caller frames) and other
// otherwise (net/http plumbing, the benchmark's own code).
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "pmc/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, l := range cpuLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	if len(frames) > 0 && (strings.HasPrefix(frames[0], "runtime.") || strings.HasPrefix(frames[0], "internal/runtime/")) {
		return "go_runtime"
	}
	return "other"
}

// cpuProfile records a CPU profile between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns each layer's share of the sampled CPU
// time.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	samples, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byLayer := make(map[string]float64)
	var total float64
	for _, s := range samples {
		byLayer[layerOf(s.frames)] += float64(s.value)
		total += float64(s.value)
	}
	for l := range byLayer {
		byLayer[l] = ratio(byLayer[l], total)
	}
	return byLayer, nil
}

// profSample is one decoded profile sample: its stack, leaf first, and
// its last value (CPU nanoseconds for a CPU profile).
type profSample struct {
	frames []string
	value  int64
}

// decodeProfile reads the gzipped pprof protobuf runtime/pprof writes.
// It decodes only what bucketing needs: samples, locations, functions and
// the string table.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = make(map[uint64][]uint64) // location ID -> function IDs, innermost first
		fnName  = make(map[uint64]int64)    // function ID -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Location.line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if len(s.values) > 0 {
			ps.value = s.values[len(s.values)-1]
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					ps.frames = append(ps.frames, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks a protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes (fixed-width
// fields are skipped: the decoded messages use none).
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// appendPacked appends a repeated varint field that arrived either as one
// varint (v, data nil) or packed (data).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
