package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseScenario checks that the scenario parser never panics on
// arbitrary input, and that anything it accepts survives a
// parse→format→parse round trip unchanged — String is a canonical,
// lossless rendering, which is what makes the scenario text a stable
// content hash for recording headers.
//
// The seed corpus layers three sources: hand-picked clauses covering
// every key, the golden scenario files under testdata/scenarios, and
// the fault-DSL seeds wrapped as fault clauses (the scenario grammar
// embeds that parser, so its edge cases are our edge cases).
func FuzzParseScenario(f *testing.F) {
	f.Add("")
	f.Add("scenario x\n")
	f.Add("nodes 16\nrounds 4\nalgorithms IQ,HBC\n")
	f.Add("phi 0.25\nloss 0.1\nseed -9\ncapacity 8\n")
	f.Add("tree bfs\nvalues 3\narea 90.5\nrange 22.25\n")
	f.Add("data synthetic universe=1024 period=31 noise=5 amplitude=0.2 spread=0.5\n")
	f.Add("data pressure skip=3 pessimistic=true\n")
	f.Add("algorithms TAG,POS,LCLL-H,LCLL-S,HBC,HBC-NB,IQ,ADAPT\n")
	f.Add("arq off\n")
	f.Add("arq retries=2 dead=4\n")
	f.Add("alerts storm=frames:mean(5)>400; err=rank_error:max(3)>=10,20\n")
	f.Add("slo rank\n")
	f.Add("slo rank epsilon=0.02 objective=0.999\nslo fresh stale=2\nslo latency ms=25 fast=4 slow=32 warn=3 crit=10\n")
	f.Add("slo bogus\nslo rank epsilon=\nslo rank name=a\nslo rank name=a\n")
	f.Add("adapt on storm(warn) do switch iq\n")
	f.Add("adapt on burnrate(crit) do reroot hold 3 cooldown 16; on excursion(warn) do widen 1.5\n")
	f.Add("adapt on storm do narrow 2 cooldown 0\nadapt on bogus do reroot\n")
	f.Add("sweep loss 0.05,0.1,0.2\n")
	f.Add("sweep nodes 10,20,40\n")
	f.Add("# comment\n\nnodes 12\n")
	f.Add("nodes 1e3\nphi NaN\nloss +Inf\n")
	f.Add("fault crash@\n")

	// Fault-DSL seeds, wrapped the way a scenario file embeds them.
	for _, spec := range []string{
		"crash@120:n17", "crash@3-6:n5", "burst(p=0.3,len=8):link",
		"burst(p=0.05,len=2.5):n3", "partition@100-140",
		"crash@0:n0;burst(p=1,len=1):link;partition@1-2",
		" crash@5:n1 ;; ", "burst(p=1e-3,len=1e6)", "burst(p=,len=)",
	} {
		f.Add("nodes 200\nfault " + spec + "\n")
	}

	// Golden scenarios: the canonical files must stay parseable forever.
	golden, _ := filepath.Glob("../../testdata/scenarios/*.scn")
	for _, path := range golden {
		if b, err := os.ReadFile(path); err == nil {
			f.Add(string(b))
		}
	}

	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		formatted := s.String()
		s2, err := Parse(formatted)
		if err != nil {
			t.Fatalf("Parse ok but Parse(String()) failed: %v\ncanonical:\n%s", err, formatted)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed the scenario:\n in  %+v\n out %+v\ncanonical:\n%s", s, s2, formatted)
		}
		if s2.String() != formatted {
			t.Fatalf("String not stable:\n%s\nthen\n%s", formatted, s2.String())
		}
		if s.Hash() != s2.Hash() {
			t.Fatalf("hash not stable across round trip")
		}
	})
}

// FuzzDecodeRecord checks the round-record reader against
// encoding/json: it never panics, and whatever it accepts encoding/json
// accepts too, decoding to the identical record. (It may reject what
// encoding/json tolerates, such as unknown fields.)
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte(`{"run":{"key":"IQ"}}`))
	f.Add([]byte(`{"round":{"key":"HBC","answer":31970,"k":960,"rank_err":0,"point":{"round":0,"span":1,"frames":174,"joules":0.004225373999999998,"hot_joules":1e-05}}}`))
	f.Add([]byte(`{"round":{"key":"aé\"b","point":{"round":-0,"joules":-0.0,"step_ms":2E+3}}}`))
	f.Add([]byte(` { "round" : { "k" : 1 , "point" : { } } } `))
	f.Add([]byte(`{"round":{"point":{"round":1},"point":{"span":2}}}`))
	f.Add([]byte(`{"round":{"answer":01}}`))
	f.Add([]byte(`{"round":null}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var got fileRecord
		if decodeRecord(line, &got) != nil {
			return
		}
		var want fileRecord
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decoded to %+v, encoding/json to %+v", line, got, want)
		}
	})
}

// FuzzEncodeRecord checks the record writers against encoding/json:
// for a Point, Snapshot, Verdict, alert Event, adapt Decision, SLO
// Status and Event, and round record filled from the input, the writer
// emits json.Marshal's bytes, or the same error, and Hash over them
// equals the json.Marshal-built digest.
func FuzzEncodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 256))
	f.Add(bytes.Repeat([]byte{3, 0xff}, 256))
	f.Add(bytes.Repeat([]byte{0xc8, 5, 1, 7}, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEncodeRecords(t, data)
	})
}

// FuzzReplayHeader checks that Replay never panics on a recording's
// header line and the lines after it, and that a header it accepts
// carries the hash of the scenario it replays. The seeds are the
// committed recordings' first lines, alone and followed by a run
// marker and a round.
func FuzzReplayHeader(f *testing.F) {
	f.Add([]byte(`{"header":{"format":"wsnq-recording","version":1,"scenario":"","sha256":""}}`))
	f.Add([]byte(`{"header":null}`))
	f.Add([]byte(`{"run":{"key":"IQ"}}`))
	// A valid header at the largest sizes the grammar allows: replay
	// must not reserve runs × rounds × algorithms × sweep values of
	// anything before it reads a round.
	loss := make([]string, 32)
	for i := range loss {
		loss[i] = strconv.FormatFloat(float64(i)/100, 'f', -1, 64)
	}
	big, err := Parse("nodes 20000\nrounds 1000000\nruns 10000\ncapacity 1048576\n" +
		"algorithms TAG,POS,LCLL-H,LCLL-S,HBC,HBC-NB,IQ,ADAPT\nalerts storm=frames:mean(5)>400\n" +
		"adapt on storm(warn) do reroot\nsweep loss " + strings.Join(loss, ",") + "\n")
	if err != nil {
		f.Fatal(err)
	}
	header, err := json.Marshal(fileRecord{Header: &Header{
		Format: recordingFormat, Version: recordingVersion, Scenario: big.String(), SHA256: big.Hash(),
	}})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Replay(bytes.NewReader(header)); err != nil {
		f.Fatalf("replaying the largest header: %v", err)
	}
	f.Add(header)
	files, _ := filepath.Glob("../../testdata/recordings/*.jsonl")
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.SplitAfterN(b, []byte("\n"), 4)
		f.Add(lines[0])
		f.Add(bytes.Join(lines[:3], nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Replay(bytes.NewReader(data))
		if err != nil {
			return
		}
		line, _, _ := bytes.Cut(data, []byte("\n"))
		var rec fileRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Header == nil {
			t.Fatalf("replayed %q without a header line (%v)", line, err)
		}
		if out.Scenario.Hash() != rec.Header.SHA256 {
			t.Fatalf("replayed scenario hash %s, header %s", out.Scenario.Hash(), rec.Header.SHA256)
		}
	})
}
