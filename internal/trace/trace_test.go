package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestKindText(t *testing.T) {
	for k := KindRoundStart; k <= KindRefine; k++ {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%d): %v", k, err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != k {
			t.Fatalf("kind %d round-tripped to %d via %q", k, back, text)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("unmarshaling an unknown kind name should fail")
	}
}

func TestCastText(t *testing.T) {
	for _, c := range []Cast{Unicast, Broadcast} {
		text, err := c.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%d): %v", c, err)
		}
		var back Cast
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != c {
			t.Fatalf("cast %d round-tripped to %d", c, back)
		}
	}
	var c Cast
	if err := c.UnmarshalText([]byte("anycast")); err == nil {
		t.Fatal("unmarshaling an unknown cast should fail")
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 5; i++ {
		r.Collect(Event{Kind: KindSend, Round: i})
	}
	if r.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", r.Len())
	}
	for i, e := range r.Events() {
		if e.Round != i {
			t.Fatalf("event %d has round %d", i, e.Round)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: KindRoundStart, Round: 0, Node: -1},
		{Kind: KindSend, Round: 0, Phase: "collect", Node: 3, Peer: 1, Cast: Unicast, Bits: 160, Wire: 288, Frames: 1, Values: 10},
		{Kind: KindEnergy, Round: 0, Node: 3, Wire: 288, Joules: 0.0001234, Aux: EnergySend},
		{Kind: KindDecision, Round: 0, Node: -1, Value: 42, Aux: 7},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		w.Collect(e)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("Writer error: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(events) {
		t.Fatalf("wrote %d lines for %d events", lines, len(events))
	}
	got, err := readEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, wrote %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d round-tripped to %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestJSONLWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{})
	w.Collect(Event{Kind: KindSend})
	if w.Err() == nil {
		t.Fatal("writer should report the underlying write error")
	}
	w.Collect(Event{Kind: KindSend}) // must not panic, error stays
	if w.Err() == nil {
		t.Fatal("writer error should be sticky")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := readEvents(strings.NewReader("{\"kind\":\"send\"}\nnot json\n")); err == nil {
		t.Fatal("ReadEvents should reject malformed lines")
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	a := NewRecorder()
	if got := Multi(nil, a); got != a {
		t.Fatal("Multi with one live collector should return it unwrapped")
	}
	b := NewRecorder()
	m := Multi(a, nil, b)
	m.Collect(Event{Kind: KindSend, Round: 3})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out reached a=%d b=%d collectors", a.Len(), b.Len())
	}
	if a.Events()[0].Round != 3 || b.Events()[0].Round != 3 {
		t.Fatal("fan-out altered the event")
	}
}

// readEvents parses a JSONL stream written by Writer back into events.
// Blank lines are skipped; the first malformed line aborts with its
// line number.
func readEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}
