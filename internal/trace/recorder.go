package trace

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
