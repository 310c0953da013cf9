package scenario

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"wsnq/internal/adapt"
	"wsnq/internal/alert"
	"wsnq/internal/experiment"
	"wsnq/internal/series"
	"wsnq/internal/slo"
)

// TestEncodeMatchesEncodingJSON: re-encoding each round record of every
// committed recording through the writer reproduces its line byte for
// byte.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	files, err := filepath.Glob("../../testdata/recordings/*.jsonl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed recordings found (%v)", err)
	}
	rounds := 0
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), maxRecordBytes)
		var e encoder
		for line := 1; sc.Scan(); line++ {
			var rec fileRecord
			if err := decodeRecord(sc.Bytes(), &rec); err != nil {
				t.Fatalf("%s:%d: %v", name, line, err)
			}
			if rec.Round == nil {
				continue
			}
			e.b = e.b[:0]
			e.round(rec.Round)
			if want := append(sc.Bytes(), '\n'); e.err != nil || !bytes.Equal(e.b, want) {
				t.Fatalf("%s:%d: re-encoded\n%s(err %v), recorded\n%s", name, line, e.b, e.err, want)
			}
			rounds++
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if rounds == 0 {
		t.Fatal("recordings hold no round records")
	}
}

// TestHashMatchesReference: on the replay of every committed recording,
// Hash equals the digest as json.Marshal and fmt build it.
func TestHashMatchesReference(t *testing.T) {
	files, err := filepath.Glob("../../testdata/recordings/*.jsonl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed recordings found (%v)", err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Replay(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := out.Hash(), referenceHash(out); got != want {
			t.Errorf("%s: Hash %s, reference %s", name, got, want)
		}
	}
}

// TestHashSpillsLongSeries: a series line longer than the digest's
// chunk goes to the hash in pieces, and the digest still equals the
// json.Marshal-built one — also when a float json.Marshal rejects comes
// after the first piece, and the line must hash as its tag alone.
func TestHashSpillsLongSeries(t *testing.T) {
	b, err := os.ReadFile("../../testdata/recordings/lossy-storm.rec.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Replay(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var points []series.Point
	for len(points) < 1000 {
		for _, snap := range out.Series {
			points = append(points, snap.Points...)
		}
	}
	if line, _ := json.Marshal(series.Snapshot{Points: points}); len(line) < 3*digestChunk {
		t.Fatalf("series line of %d bytes spills at most once", len(line))
	}
	for _, bad := range []int{-1, 0, 500, len(points) - 1} {
		long := append([]series.Point(nil), points...)
		if bad >= 0 {
			long[bad].HotJoules = math.Inf(1)
		}
		o := *out
		o.Series = map[string]series.Snapshot{"a": {Stride: 1, Rounds: len(long), Points: long}, "b": out.Series["IQ"]}
		if got, want := o.Hash(), referenceHash(&o); got != want {
			t.Errorf("bad point %d: Hash %s, reference %s", bad, got, want)
		}
	}
}

// TestEncodeMatchesMarshalRandom runs the fuzz target's check over a
// fixed stream of random inputs, so every field of every record type
// is exercised set, empty and unencodable without a fuzzing run.
func TestEncodeMatchesMarshalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 512)
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		checkEncodeRecords(t, data)
	}
}

// TestRecorderRejectsUnencodable: a round whose point holds a float
// encoding/json rejects fails the recording with encoding/json's error
// and writes nothing for the round.
func TestRecorderRejectsUnencodable(t *testing.T) {
	var buf bytes.Buffer
	p := series.Point{Joules: math.Inf(-1)}
	r := &recorder{w: &buf}
	r.point("IQ", p, experiment.Verdict{})
	want := json.NewEncoder(io.Discard).Encode(fileRecord{Round: &roundRecord{Key: "IQ", Point: p}})
	if r.err == nil || r.err.Error() != want.Error() {
		t.Fatalf("recorder error %v, encoding/json %v", r.err, want)
	}
	if buf.Len() != 0 {
		t.Fatalf("recorder wrote %q", buf.Bytes())
	}
}

// checkEncodeRecords fills one value of every record type from data and
// requires the writer's bytes and error to equal encoding/json's, and
// Hash over them to equal the reference digest.
func checkEncodeRecords(t *testing.T, data []byte) {
	t.Helper()
	src := &fillSource{b: data}
	var (
		snap     series.Snapshot
		verdict  Verdict
		event    alert.Event
		decision adapt.Decision
		status   slo.Status
		sloEvent slo.Event
		rr       roundRecord
	)
	for _, v := range []any{&snap, &verdict, &event, &decision, &status, &sloEvent, &rr} {
		src.fill(reflect.ValueOf(v).Elem())
	}
	check := func(what string, v any, write func(*encoder)) {
		t.Helper()
		want, wantErr := json.Marshal(v)
		var e encoder
		write(&e)
		if (e.err == nil) != (wantErr == nil) || (wantErr != nil && e.err.Error() != wantErr.Error()) {
			t.Fatalf("%s %+v: writer error %v, encoding/json %v", what, v, e.err, wantErr)
		}
		if wantErr == nil && !bytes.Equal(e.b, want) {
			t.Fatalf("%s: writer\n%s\nencoding/json\n%s", what, e.b, want)
		}
	}
	for i := range snap.Points {
		check("point", snap.Points[i], func(e *encoder) { e.point(&snap.Points[i]) })
	}
	check("snapshot", snap, func(e *encoder) { e.snapshot(&snap) })
	check("verdict", verdict, func(e *encoder) { e.verdict(&verdict) })
	check("alert", event, func(e *encoder) { e.alert(&event) })
	check("decision", decision, func(e *encoder) { e.decision(&decision) })
	check("slo status", status, func(e *encoder) { e.sloStatus(&status) })
	check("slo event", sloEvent, func(e *encoder) { e.sloEvent(&sloEvent) })

	// The round line matches json.Encoder's, newline included.
	var line bytes.Buffer
	wantErr := json.NewEncoder(&line).Encode(fileRecord{Round: &rr})
	var e encoder
	e.round(&rr)
	if (e.err == nil) != (wantErr == nil) || (wantErr == nil && !bytes.Equal(e.b, line.Bytes())) {
		t.Fatalf("round: writer\n%s(err %v)\njson.Encoder\n%s(err %v)", e.b, e.err, line.Bytes(), wantErr)
	}

	s, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	o := &Outcome{
		Scenario:  s,
		Series:    map[string]series.Snapshot{verdict.Key: snap, event.Key: {Stride: 1}},
		Alerts:    alert.Log{event},
		Verdicts:  []Verdict{verdict, verdict},
		SLO:       []slo.Status{status},
		SLOEvents: []slo.Event{sloEvent},
		Adapts:    []adapt.Decision{decision},
	}
	if got, want := o.Hash(), referenceHash(o); got != want {
		t.Fatalf("Hash %s, reference %s", got, want)
	}
}

// referenceHash is Outcome.Hash as json.Marshal and fmt build it: the
// definition the writer-based Hash must reproduce.
func referenceHash(o *Outcome) string {
	h := sha256.New()
	fmt.Fprintf(h, "scenario %s\n", o.Scenario.Hash())
	keys := make([]string, 0, len(o.Series))
	for k := range o.Series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	line := func(tag string, v any) {
		b, _ := json.Marshal(v)
		fmt.Fprintf(h, "%s %s\n", tag, b)
	}
	for _, k := range keys {
		line("series "+k, o.Series[k])
	}
	for _, e := range o.Alerts {
		line("alert", e)
	}
	for _, v := range o.Verdicts {
		line("verdict", v)
	}
	for _, st := range o.SLO {
		line("slo", st)
	}
	for _, e := range o.SLOEvents {
		line("sloevent", e)
	}
	for _, d := range o.Adapts {
		line("adapt", d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fillSource fills values from fuzz bytes, reading zero once they run
// out.
type fillSource struct{ b []byte }

func (s *fillSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fillSource) uint64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(s.byte())
	}
	return x
}

// fillStrings are strings that need each of encoding/json's escapes.
var fillStrings = []string{
	"", "IQ", "lossy/HBC", `q"\`, "<a&b>", "tab\tnl\nbs\bff\fcr\r", "\x00\x1f\x7f",
	"é€😀", "bad\xffutf8\xc3", "\u2028\u2029", "Level(9)",
}

// fill sets v from the source: numbers take zero, negative zero, small,
// extreme, unencodable or arbitrary values; strings take one of
// fillStrings or raw bytes; pointers and slices may stay nil.
func (s *fillSource) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			s.fill(v.Field(i))
		}
	case reflect.Pointer:
		if s.byte()%2 == 1 {
			v.Set(reflect.New(v.Type().Elem()))
			s.fill(v.Elem())
		}
	case reflect.Slice:
		if n := int(s.byte() % 5); n < 4 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				s.fill(v.Index(i))
			}
		}
	case reflect.Int, reflect.Int64:
		switch s.byte() % 4 {
		case 1:
			v.SetInt(int64(int8(s.byte())))
		case 2, 3:
			v.SetInt(int64(s.uint64()))
		}
	case reflect.Uint8:
		v.SetUint(uint64(s.byte() % 5))
	case reflect.Float64:
		specials := []float64{
			math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			1e-6, 9.99e-7, 1e21, 9.99e20, 1e-7, -1e-9, 5e-324, math.MaxFloat64, 0.1, -2.5e-300, 123456789,
		}
		switch sel := s.byte(); sel % 4 {
		case 1:
			v.SetFloat(specials[int(s.byte())%len(specials)])
		case 2:
			v.SetFloat(float64(int16(s.uint64())) / 1000)
		case 3:
			v.SetFloat(math.Float64frombits(s.uint64()))
		}
	case reflect.String:
		if n := int(s.byte()); n < 200 {
			v.SetString(fillStrings[n%len(fillStrings)])
		} else {
			raw := make([]byte, n%8)
			for i := range raw {
				raw[i] = s.byte()
			}
			v.SetString(string(raw))
		}
	default:
		panic(fmt.Sprintf("fill: unsupported kind %v", v.Kind()))
	}
}
