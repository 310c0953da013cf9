package level

import (
	"reflect"
	"testing"
)

// TestLogSinceAcrossOverflows checks absolute cursors across several
// drop-half discards: every poll returns exactly the events appended
// since the previous one, a stale cursor yields the oldest retained
// events, and the retained log never exceeds LogCap.
func TestLogSinceAcrossOverflows(t *testing.T) {
	var l Log[int]
	if evs, next := l.Since(0); evs != nil || next != 0 {
		t.Fatalf("empty log: Since(0) = %v, %d", evs, next)
	}
	cursor := 0
	for i := 0; i < 4*LogCap+7; i++ {
		l.Append(i)
		if i%300 != 0 {
			continue
		}
		evs, next := l.Since(cursor)
		if next != i+1 {
			t.Fatalf("after %d appends: next = %d", i+1, next)
		}
		if len(evs) != next-cursor || evs[0] != cursor {
			t.Fatalf("poll at %d from cursor %d: got %d events starting %d", i, cursor, len(evs), evs[0])
		}
		cursor = next
	}
	if got := len(l.All()); got > LogCap {
		t.Fatalf("retained %d events, cap %d", got, LogCap)
	}
	total := 4*LogCap + 7
	if l.Dropped()+len(l.All()) != total || l.Dropped() < 3*LogCap/2 {
		t.Fatalf("dropped %d + retained %d != %d appended", l.Dropped(), len(l.All()), total)
	}
	evs, next := l.Since(cursor)
	if next != total || len(evs) != total-cursor || evs[len(evs)-1] != total-1 {
		t.Fatalf("final poll: %d events to %d", len(evs), next)
	}
	stale, _ := l.Since(1) // long discarded
	if !reflect.DeepEqual(stale, l.All()) || stale[0] != l.Dropped() {
		t.Fatalf("stale cursor: got %d events from %d", len(stale), stale[0])
	}
	if evs, n := l.Since(next); evs != nil || n != next {
		t.Fatalf("drained cursor returned %d events, %d", len(evs), n)
	}
}

// TestRingOldestFirst checks At reads the newest Len values oldest
// first, before and after the ring wraps and across a Reset.
func TestRingOldestFirst(t *testing.T) {
	r := NewRing[int](3)
	var pushed []int
	for v := 1; v <= 7; v++ {
		if v == 6 {
			r.Reset()
			pushed = nil
		}
		r.Push(v)
		pushed = append(pushed, v)
		want := pushed[max(len(pushed)-3, 0):]
		got := make([]int, r.Len())
		for i := range got {
			got[i] = r.At(i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after push %d: ring %v, want %v", v, got, want)
		}
	}
}

// TestStandingSet checks transitions report the level left and keep
// the entry round while the level holds.
func TestStandingSet(t *testing.T) {
	var s Standing
	if prev, changed := s.Set(OK, 3); changed || prev != OK {
		t.Fatalf("OK→OK reported a change")
	}
	if prev, changed := s.Set(Crit, 5); !changed || prev != OK || s.Since != 5 {
		t.Fatalf("OK→crit: prev %v changed %v since %d", prev, changed, s.Since)
	}
	if _, changed := s.Set(Crit, 9); changed || s.Since != 5 {
		t.Fatalf("standing crit moved: since %d", s.Since)
	}
	if prev, _ := s.Set(Warn, 11); prev != Crit || s.Level != Warn {
		t.Fatalf("crit→warn: prev %v level %v", prev, s.Level)
	}
}
