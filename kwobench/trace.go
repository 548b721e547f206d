package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one lap share the lap number.
type span struct {
	Name  string `json:"name"`
	Lap   int    `json:"lap"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int    `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	lap    int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Lap: t.lap, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

// end closes span id, attaching a byte count when positive.
func (t *tracer) end(id, bytes int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.spans[id].Bytes = bytes
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the spans' durations in milliseconds.
func durations(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms()
	}
	return out
}

// byteSizes returns the spans' byte counts.
func byteSizes(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.Bytes)
	}
	return out
}

// Layers, in report order. A CPU sample belongs to the innermost frame
// of a kwo/internal package on its stack, so standard-library and
// allocation work counts toward the layer that called it. Packages not
// listed here, and stacks with no kwo/internal frame that are not pure
// runtime (the benchmark's own code, net/http around a handler), count
// as "other"; stacks made only of runtime frames (GC workers, the
// scheduler) count as "gc".
var layers = []string{"workload", "simclock", "cdw", "telemetry", "costmodel", "rl", "ml",
	"monitor", "actuator", "core", "obs", "fleet", "experiments", "gc", "other"}

// attribute returns the layer a sample with the given stack (innermost
// frame first) belongs to.
func attribute(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "kwo/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			for _, l := range layers {
				if l == rest {
					return rest
				}
			}
			return "other"
		}
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/runtime/") &&
			!strings.HasPrefix(f, "runtime/internal/") {
			return "other"
		}
	}
	return "gc"
}

// cpuSample is one stack of a CPU profile with its CPU time.
type cpuSample struct {
	frames []string // innermost first
	ns     int64
}

// checkFrame is the benchmark's check of a response body. It runs
// inside the profiled phase but outside every timed interval, and
// parses /metrics with obs.ParseText, so its samples would otherwise
// inflate obs on the read workloads.
const checkFrame = "main.checkResponse"

// cpuSplit sums samples by layer, in nanoseconds, leaving out samples
// taken while the benchmark checked a response.
func cpuSplit(samples []cpuSample) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		if !slices.Contains(s.frames, checkFrame) {
			out[attribute(s.frames)] += s.ns
		}
	}
	return out
}

// parseCPUProfile decodes the gzipped protobuf a runtime/pprof CPU
// profile is written in, keeping only what attribution needs: each
// sample's stack of function names and its cpu/nanoseconds value.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples    []rawSample
		valueTypes []int64 // string index of each sample value's type
		locFuncs   = map[uint64][]uint64{}
		funcNames  = map[uint64]int64{}
		strs       []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
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
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		var frames []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				frames = append(frames, str(funcNames[fn]))
			}
		}
		out = append(out, cpuSample{frames: frames, ns: s.values[cpu]})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; the profile format uses none that
// attribution needs.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unknown wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field in either encoding: one
// value (v, data == nil) or a packed run (data).
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
