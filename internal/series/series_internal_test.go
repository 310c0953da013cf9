package series

import "testing"

// TestMergeRetriesAndOrphans pins the downsampling semantics of the
// fault metrics: retries are additive across the merged span, the
// orphan count keeps the worst round regardless of merge order.
func TestMergeRetriesAndOrphans(t *testing.T) {
	a := Point{Span: 1, Retries: 2, Orphans: 5}
	b := Point{Span: 1, Retries: 3, Orphans: 1}
	if m := merge(a, b); m.Retries != 5 || m.Orphans != 5 {
		t.Errorf("merge(a,b) retries/orphans = %d/%d, want 5/5", m.Retries, m.Orphans)
	}
	if m := merge(b, a); m.Retries != 5 || m.Orphans != 5 {
		t.Errorf("merge(b,a) retries/orphans = %d/%d, want 5/5", m.Retries, m.Orphans)
	}
}

// TestDownsampleInternals checks the stride bookkeeping directly: after
// the first halving the stored stride doubles and an odd tail becomes
// the new pending partial.
func TestDownsampleInternals(t *testing.T) {
	s := New(minCapacity) // capacity 8
	for r := 0; r < minCapacity; r++ {
		s.append("k", Point{Frames: 1})
	}
	s.mu.Lock()
	st := s.m["k"]
	if st.stride != 2 {
		t.Errorf("stride after first halving = %d, want 2", st.stride)
	}
	if len(st.pts) != minCapacity/2 {
		t.Errorf("stored points = %d, want %d", len(st.pts), minCapacity/2)
	}
	if st.pending.Span != 0 {
		t.Errorf("pending span = %d, want 0 (even point count merged cleanly)", st.pending.Span)
	}
	s.mu.Unlock()

	// One more round starts a partial pending span at the new stride.
	s.append("k", Point{Frames: 1})
	s.mu.Lock()
	if st.pending.Span != 1 {
		t.Errorf("pending span after one more round = %d, want 1", st.pending.Span)
	}
	s.mu.Unlock()
}
