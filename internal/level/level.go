// Package level is the windowed-level machinery shared by the
// streaming observers (the alert engine, the SLO tracker, and the
// adaptation controller): the OK/Warn/Crit severity with its text
// codec, a standing level that records transitions, a fixed-capacity
// ring window, and a bounded transition log read through absolute
// cursors.
//
// Nothing here locks; each observer guards its own state.
package level

import "fmt"

// Level is a severity. Ordering is meaningful: OK < Warn < Crit.
type Level uint8

const (
	OK Level = iota
	Warn
	Crit
)

var names = [...]string{"ok", "warn", "crit"}

func (l Level) String() string {
	if int(l) < len(names) {
		return names[l]
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// MarshalText encodes the level as its lowercase name for JSON.
func (l Level) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText accepts the lowercase level names.
func (l *Level) UnmarshalText(b []byte) error {
	for i, n := range names {
		if string(b) == n {
			*l = Level(i)
			return nil
		}
	}
	return fmt.Errorf("level: unknown level %q", b)
}

// Standing is the current level of one detector and the round it was
// entered.
type Standing struct {
	Level Level
	Since int
}

// Set moves the detector to l at round. It reports the level it left
// and whether the level changed; an unchanged level keeps Since.
func (s *Standing) Set(l Level, round int) (prev Level, changed bool) {
	prev = s.Level
	if l == prev {
		return prev, false
	}
	s.Level, s.Since = l, round
	return prev, true
}

// Ring is a fixed-capacity window over the newest values pushed.
type Ring[T any] struct {
	slots []T
	head  int // next write position
	n     int // values held
}

// NewRing returns an empty ring holding at most capacity values
// (capacity ≥ 1).
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{slots: make([]T, capacity)}
}

// Push appends v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) {
	if r.n < len(r.slots) {
		r.n++
	}
	r.slots[r.head] = v
	if r.head++; r.head == len(r.slots) {
		r.head = 0
	}
}

// Len is the number of values held.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th held value, oldest first (0 ≤ i < Len).
func (r *Ring[T]) At(i int) T {
	j := r.head - r.n + i
	if j < 0 {
		j += len(r.slots)
	}
	return r.slots[j]
}

// Reset empties the ring.
func (r *Ring[T]) Reset() { r.head, r.n = 0, 0 }

// LogCap bounds a Log: appending to a full log first discards its
// older half, so recent history always survives.
const LogCap = 1024

// Log is a bounded event log. Cursors are positions in the sequence of
// every event ever appended, so they stay valid across discards.
type Log[E any] struct {
	events  []E
	dropped int // events discarded from the front
}

// Append adds an event, discarding the older half of a full log.
func (l *Log[E]) Append(e E) {
	if len(l.events) >= LogCap {
		l.dropped += LogCap / 2
		l.events = append(l.events[:0], l.events[LogCap/2:]...)
	}
	l.events = append(l.events, e)
}

// All returns a copy of the retained events, oldest first.
func (l *Log[E]) All() []E { return append([]E(nil), l.events...) }

// Since returns a copy of the events after an absolute cursor — the
// value a previous call returned as next; 0 reads from the beginning —
// and the cursor to resume from. A cursor into the discarded region
// yields the oldest retained events.
func (l *Log[E]) Since(cursor int) (events []E, next int) {
	next = l.dropped + len(l.events)
	if cursor >= next {
		return nil, next
	}
	return append([]E(nil), l.events[max(cursor-l.dropped, 0):]...), next
}

// Dropped reports how many events have been discarded.
func (l *Log[E]) Dropped() int { return l.dropped }
