package console

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// benchEvents renders n canonical events — the all-event log shape of a
// titansim console.log, which is what the loaders actually chew through.
func benchEvents(n int) []Event {
	base := sampleEvent()
	events := make([]Event, n)
	for i := range events {
		e := base
		e.Time = base.Time.Add(time.Duration(i) * time.Second)
		e.Node = topology.NodeID((int(base.Node) + i*131) % topology.TotalNodes)
		e.Serial = gpu.Serial(1000 + i)
		e.Job = JobID(i % 5000)
		switch i % 4 {
		case 1:
			e.Code = 13
			e.StructureValid = false
			e.Page = NoPage
		case 2:
			e.Code = xid.OffTheBus
			e.StructureValid = false
			e.Page = NoPage
		case 3:
			e.Code = xid.ECCPageRetirement
			e.Page = int32(i % 100000)
		}
		events[i] = e
	}
	return events
}

func benchLog(n int) []byte {
	var buf bytes.Buffer
	if err := WriteLog(&buf, benchEvents(n)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

const benchLines = 20000

// BenchmarkParseSerial is the PR 2 baseline: the regex classifier over a
// bufio line walk, forced by clearing the fast-path eligibility bit.
func BenchmarkParseSerial(b *testing.B) {
	log := benchLog(benchLines)
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCorrelator()
		c.fast = false
		events, err := c.ParseAll(bytes.NewReader(log))
		if err != nil || len(events) != benchLines {
			b.Fatalf("parsed %d events, err %v", len(events), err)
		}
	}
}

// BenchmarkParseParallel is the fast path as shipped: zero-allocation
// decoder across newline-aligned shards at the machine's width.
func BenchmarkParseParallel(b *testing.B) {
	log := benchLog(benchLines)
	workers := runtime.GOMAXPROCS(0)
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCorrelator()
		events, err := c.ParseBytes(log, workers)
		if err != nil || len(events) != benchLines {
			b.Fatalf("parsed %d events, err %v", len(events), err)
		}
	}
}

// BenchmarkDecodeFast measures the zero-allocation decoder on a single
// canonical line; its allocs/op is the budget check.sh enforces (<= 2).
func BenchmarkDecodeFast(b *testing.B) {
	line := []byte(sampleEvent().Raw())
	var d Decoder
	d.DecodeRawBytes(line) // warm the scratch buffer
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.DecodeRawBytes(line); !ok {
			b.Fatal("canonical line declined")
		}
	}
}

func BenchmarkEncodeSerial(b *testing.B) {
	events := benchEvents(benchLines)
	var size int64
	for i := range events {
		size += int64(len(events[i].AppendRaw(nil)) + 1)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteLog(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}
