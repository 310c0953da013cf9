package prof

import (
	"context"
	"math"
	"runtime/metrics"
	"strings"
	"testing"
)

// keep defeats dead-code elimination of test allocations.
var keep [][]byte

// allocate burns roughly total bytes of heap in chunk-sized pieces,
// keeping them live so the allocation counters must move.
func allocate(total, chunk int) {
	for done := 0; done < total; done += chunk {
		keep = append(keep, make([]byte, chunk))
	}
}

func TestAttributionSanity(t *testing.T) {
	keep = nil
	rec := NewRecorder()
	h := rec.Attach(context.Background(), "LCLLS")

	h.Switch("validation")
	allocate(64<<10, 4096) // 64 KiB
	h.Switch("refinement")
	allocate(8<<20, 4096) // 8 MiB — must dominate
	h.Close()
	keep = nil

	rep := rec.Report()
	if len(rep.Stats) != 2 {
		t.Fatalf("want 2 buckets, got %d: %+v", len(rep.Stats), rep.Stats)
	}
	if rep.TotalAllocBytes < 8<<20 {
		t.Errorf("total alloc bytes %d, want >= %d", rep.TotalAllocBytes, 8<<20)
	}

	top, ok := rep.TopAllocPhase("LCLLS")
	if !ok {
		t.Fatal("TopAllocPhase found no buckets for LCLLS")
	}
	if top.Phase != "refinement" {
		t.Errorf("top allocating phase = %q, want refinement (report: %+v)", top.Phase, rep.Stats)
	}
	if top.AllocShare < 0.9 {
		t.Errorf("refinement alloc share = %.3f, want > 0.9", top.AllocShare)
	}

	var cpuSum, allocSum float64
	for _, s := range rep.Stats {
		if s.CPUSeconds < 0 {
			t.Errorf("negative CPU span in %+v", s)
		}
		if s.Switches < 1 {
			t.Errorf("bucket %s/%s booked %d spans, want >= 1", s.Scope, s.Phase, s.Switches)
		}
		cpuSum += s.CPUShare
		allocSum += s.AllocShare
	}
	if math.Abs(cpuSum-1) > 1e-9 {
		t.Errorf("CPU shares sum to %v, want 1", cpuSum)
	}
	if math.Abs(allocSum-1) > 1e-9 {
		t.Errorf("alloc shares sum to %v, want 1", allocSum)
	}
}

func TestSwitchNormalizesEmptyPhase(t *testing.T) {
	rec := NewRecorder()
	h := rec.Attach(context.Background(), "s")
	h.Switch("")
	h.Close()
	rep := rec.Report()
	if len(rep.Stats) != 1 || rep.Stats[0].Phase != "other" {
		t.Errorf("empty phase should book to \"other\": %+v", rep.Stats)
	}
}

func TestCloseIdempotentAndReopen(t *testing.T) {
	rec := NewRecorder()
	h := rec.Attach(context.Background(), "s")
	h.Switch("collect")
	h.Close()
	h.Close() // must not double-book
	rep := rec.Report()
	if got := rep.Stats[0].Switches; got != 1 {
		t.Errorf("double Close booked %d spans, want 1", got)
	}
	h.Switch("collect") // reopen after Close
	h.Close()
	if got := rec.Report().Stats[0].Switches; got != 2 {
		t.Errorf("reopened handle booked %d spans total, want 2", got)
	}
}

func TestReset(t *testing.T) {
	rec := NewRecorder()
	h := rec.Attach(context.Background(), "s")
	h.Switch("collect")
	h.Close()
	rec.Reset()
	if rep := rec.Report(); len(rep.Stats) != 0 {
		t.Errorf("Reset left %d buckets", len(rep.Stats))
	}
}

func TestReportDeterministicOrderAndScope(t *testing.T) {
	rec := NewRecorder()
	rec.add("b", "x", 2e9, 10, 1)
	rec.add("a", "y", 2e9, 20, 2)
	rec.add("a", "z", 1e9, 30, 3)
	rep := rec.Report()
	// Equal CPU sorts by scope then phase; larger CPU first.
	want := []Key{{"a", "y"}, {"b", "x"}, {"a", "z"}}
	for i, k := range want {
		if rep.Stats[i].Scope != k.Scope || rep.Stats[i].Phase != k.Phase {
			t.Fatalf("order[%d] = %s/%s, want %s/%s", i,
				rep.Stats[i].Scope, rep.Stats[i].Phase, k.Scope, k.Phase)
		}
	}
	if got := rep.Scope("a"); len(got) != 2 {
		t.Errorf("Scope(a) returned %d buckets, want 2", len(got))
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "scope") || !strings.Contains(sb.String(), "total") {
		t.Errorf("WriteText table missing header/total:\n%s", sb.String())
	}
}

func TestRuntimeSampler(t *testing.T) {
	s := NewRuntimeSampler()
	before := s.Sample()
	keep = nil
	allocate(1<<20, 4096)
	after := s.Sample()
	keep = nil
	if after.AllocBytes <= before.AllocBytes {
		t.Errorf("AllocBytes did not advance: %d -> %d", before.AllocBytes, after.AllocBytes)
	}
	if after.AllocObjects <= before.AllocObjects {
		t.Errorf("AllocObjects did not advance: %d -> %d", before.AllocObjects, after.AllocObjects)
	}
	if after.HeapLiveBytes == 0 {
		t.Error("HeapLiveBytes = 0")
	}
	if after.Goroutines < 1 {
		t.Errorf("Goroutines = %d", after.Goroutines)
	}
	if after.GCPauseP95Ms < 0 {
		t.Errorf("GCPauseP95Ms = %v", after.GCPauseP95Ms)
	}
}

func TestHistQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{10, 80, 10},
		Buckets: []float64{0, 1, 2, 3},
	}
	if got := histQuantile(h, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2 (upper edge of middle bucket)", got)
	}
	if got := histQuantile(h, 0.99); got != 3 {
		t.Errorf("p99 = %v, want 3", got)
	}
	inf := &metrics.Float64Histogram{
		Counts:  []uint64{1, 99},
		Buckets: []float64{0, 1, math.Inf(1)},
	}
	if got := histQuantile(inf, 0.95); got != 1 {
		t.Errorf("p95 in +Inf tail = %v, want finite lower edge 1", got)
	}
	if got := histQuantile(&metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.95); got != 0 {
		t.Errorf("empty histogram p95 = %v, want 0", got)
	}
	if got := histQuantile(nil, 0.95); got != 0 {
		t.Errorf("nil histogram p95 = %v, want 0", got)
	}
}
