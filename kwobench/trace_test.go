package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		// Allocation and encoding work counts toward the calling layer.
		{[]string{"runtime.mallocgc", "encoding/json.(*encodeState).marshal",
			"kwo/internal/fleet.writeCheckpointFile", "kwo/internal/fleet.(*Fleet).WriteCheckpoint",
			"main.(*fleetLap).step"}, "fleet"},
		// A subpackage belongs to its layer; the innermost layer wins.
		{[]string{"kwo/internal/cdw/backend.snowflake.BilledEnd", "kwo/internal/cdw.(*Meter).Hourly",
			"kwo/internal/core.(*Engine).tick"}, "cdw"},
		{[]string{"kwo/internal/ml.(*MLP).Forward", "kwo/internal/rl.(*Agent).trainStep"}, "ml"},
		// An internal package that is not a measured layer is "other".
		{[]string{"kwo/internal/pricing.newInvoice", "kwo/internal/core.(*Engine).bill"}, "other"},
		// Runtime-only stacks are GC and scheduler work.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime._GC"}, "gc"},
		{nil, "gc"},
		// The benchmark's own code and the standard library around it.
		{[]string{"net/http.(*ServeMux).ServeHTTP", "main.runLaps"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestCPUSplit(t *testing.T) {
	split := cpuSplit([]cpuSample{
		{[]string{"kwo/internal/rl.(*Agent).trainStep"}, 30},
		{[]string{"runtime.gcBgMarkWorker"}, 10},
		{[]string{"runtime.memmove", "kwo/internal/rl.(*Replay).Sample"}, 20},
		{[]string{"kwo/internal/obs.ParseText", "main.checkResponse", "main.runLaps"}, 40},
	})
	if split["rl"] != 50 || split["gc"] != 10 || len(split) != 2 {
		t.Errorf("split = %v, want rl 50 gc 10", split)
	}
}

// pb is a minimal protobuf writer for building canned profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	p.Write(binary.AppendUvarint(nil, v))
}

func (p *pb) message(field int, b []byte) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
}

func (p *pb) packed(field int, vs ...uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	p.message(field, b)
}

func TestParseCPUProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", "kwo/internal/telemetry.(*Store).OnQuery", "main.main"}
	var prof pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		prof.message(1, m.Bytes())
	}
	// Sample 1: packed location ids and values; leaf first.
	var s1 pb
	s1.packed(1, 10, 11)
	s1.packed(2, 3, 30000000)
	prof.message(2, s1.Bytes())
	// Sample 2: unpacked encoding of the same fields.
	var s2 pb
	s2.varint(1, 12)
	s2.varint(2, 1)
	s2.varint(2, 10000000)
	prof.message(2, s2.Bytes())
	// Location 10 holds an inlined frame (mallocgc inside OnQuery).
	for _, loc := range []struct {
		id    uint64
		funcs []uint64
	}{{10, []uint64{1, 2}}, {11, []uint64{3}}, {12, []uint64{1}}} {
		var m pb
		m.varint(1, loc.id)
		for _, f := range loc.funcs {
			var line pb
			line.varint(1, f)
			line.varint(2, 42)
			m.message(4, line.Bytes())
		}
		prof.message(4, m.Bytes())
	}
	for id, name := range []uint64{5, 6, 7} {
		var m pb
		m.varint(1, uint64(id+1))
		m.varint(2, name)
		prof.message(5, m.Bytes())
	}
	for _, s := range strs {
		prof.message(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	want := []string{"runtime.mallocgc", "kwo/internal/telemetry.(*Store).OnQuery", "main.main"}
	if got := samples[0].frames; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("frames = %q, want %q", got, want)
	}
	if samples[0].ns != 30000000 || samples[1].ns != 10000000 {
		t.Errorf("cpu values = %d, %d", samples[0].ns, samples[1].ns)
	}
	split := cpuSplit(samples)
	if split["telemetry"] != 30000000 || split["gc"] != 10000000 {
		t.Errorf("split = %v", split)
	}

	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("parsed a corrupt profile")
	}
	var bad bytes.Buffer
	zw = gzip.NewWriter(&bad)
	zw.Write(prof.Bytes()[:len(prof.Bytes())-3])
	zw.Close()
	if _, err := parseCPUProfile(bad.Bytes()); err == nil {
		t.Error("parsed a truncated profile")
	}
}

func TestTracerNil(t *testing.T) {
	var tr *tracer
	id := tr.begin("x")
	tr.end(id, 5)
	if tr.named("x") != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	tr.lap = 2
	tr.end(tr.begin("a"), 7)
	tr.end(tr.begin("b"), 0)
	got := tr.named("a")
	if len(got) != 1 || got[0].Lap != 2 || got[0].Bytes != 7 || got[0].End < got[0].Start {
		t.Errorf("span a = %+v", got)
	}
}
