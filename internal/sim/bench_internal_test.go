package sim

// Hop-level benchmarks of the radio layer: one convergecast with the
// flight recorder detached and with a full collector attached, and one
// flood, over a fixed 256-node deployment.

import (
	"math/rand"
	"testing"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/msg"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

// benchPayload is a fixed-size aggregate, the shape of a validation or
// summary convergecast payload.
type benchPayload struct{ bits, values int }

func (p benchPayload) Bits() int       { return p.bits }
func (p benchPayload) ValueCount() int { return p.values }

// benchRuntime builds a 256-node random connected deployment with a
// constant one-round trace, loss disabled, positioned at round 0.
func benchRuntime(tb testing.TB) *Runtime {
	tb.Helper()
	top, err := wsn.BuildConnectedTree(256, 200, 35, rand.New(rand.NewSource(1)), 50)
	if err != nil {
		tb.Fatal(err)
	}
	series := make([][]int, top.N())
	for i := range series {
		series[i] = []int{i % 97}
	}
	src, err := data.NewTrace(series)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := New(Config{
		Topology: top, Source: src,
		Sizes:  msg.DefaultSizes(),
		Energy: energy.DefaultParams(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rt
}

// benchMerge aggregates every node's reading into one fixed-size
// payload per hop, the dominant traffic pattern of the continuous
// algorithms.
func benchMerge(rt *Runtime) func(node int, children []Payload) Payload {
	return func(node int, children []Payload) Payload {
		values := 1
		for _, c := range children {
			values += c.(benchPayload).values
		}
		_ = rt.Reading(node)
		return benchPayload{bits: 32, values: values}
	}
}

func BenchmarkConvergecastTracerDisabled(b *testing.B) {
	rt := benchRuntime(b)
	merge := benchMerge(rt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Convergecast(merge)
	}
}

// BenchmarkBroadcast prices one fault-free flood of a filter-sized
// request over the benchmark deployment, tracer detached.
func BenchmarkBroadcast(b *testing.B) {
	rt := benchRuntime(b)
	p := benchPayload{bits: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Broadcast(p, nil)
	}
}

// discard is a full collector that keeps nothing: the benchmark below
// prices building every per-hop event, not storing it.
type discard struct{}

func (discard) Collect(trace.Event) {}

func BenchmarkConvergecastTracerFull(b *testing.B) {
	rt := benchRuntime(b)
	rt.SetTrace(discard{})
	merge := benchMerge(rt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Convergecast(merge)
	}
}
