package trace

// Ring is a fixed-capacity flight-recorder buffer: it keeps the most
// recent events and silently evicts the oldest, so it can stay attached
// to long simulations at bounded memory. It is not safe for concurrent
// use; each runtime should own its collector.
type Ring struct {
	buf  []Event
	next int // write cursor
	n    int // live events (<= cap)
}

// NewRing returns a ring buffer holding up to capacity events
// (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Collect implements Collector.
func (r *Ring) Collect(e Event) {
	if r.n < len(r.buf) {
		r.n++
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
}

// Len returns the number of buffered events.
func (r *Ring) Len() int { return r.n }

// Events returns the buffered events oldest-first, as a fresh slice.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Reset empties the buffer, keeping its capacity.
func (r *Ring) Reset() {
	r.next, r.n = 0, 0
}

// Recorder is an unbounded in-memory collector for tests and replay:
// it keeps every event in arrival order.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty unbounded recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Collect implements Collector.
func (r *Recorder) Collect(e Event) { r.events = append(r.events, e) }

// Events returns the recorded stream. The slice is the recorder's
// backing store; treat it as read-only.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }
