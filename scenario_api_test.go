package wsnq_test

// Golden-scenario regression tests: the scenario files under
// testdata/scenarios are the repo's integration-test currency. Each has
// a committed recording under testdata/recordings; replaying a
// recording must reproduce the pinned outcome digest bit for bit. Any
// change to the simulator, the series downsampler, the alert engine,
// or the recording format shows up here. When such a change is
// intentional, regenerate and re-pin:
//
//	WSNQ_REGEN=1 go test -run TestGoldenScenarioReplays -v .
//
// which rewrites the recordings and prints the new digests for the
// goldenOutcomes table, then commit both with an explanation.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"wsnq"
)

// goldenOutcomes pins the replay-invariant outcome hash of every golden
// scenario (SHA-256 over series snapshots, alert log, and verdicts).
var goldenOutcomes = map[string]string{
	"baseline":       "6cc4d6d04d872c6865863c2f295abc3cbf8381ff49690bf1756def717113b37a",
	"lossy-storm":    "d85323147bb9cd06ae2208ac37f5e3fb8f36c970d11efa35d5ae986faf2d0fa3",
	"crash-recovery": "ec3dd960ec01b88562849cea44eb0e4505e0e18436a8c8469fa139943ca2f331",
	"serve-load":     "e7c06c4031ad37090e875d5a9c74d31c59fe6fb189896829a5ae4584eae6317d",
	"selfheal":       "49e9f801dda7d3cd4a51f8ee06f41c780da9c547f18cceb9367c44e1d86ce698",
}

// maxRecordingBytes guards committed recording size: golden recordings
// are meant to be reviewable test fixtures, not bulk data.
const maxRecordingBytes = 1 << 20

func scenarioPath(name string) string {
	return filepath.Join("testdata", "scenarios", name+".scn")
}

func recordingPath(name string) string {
	return filepath.Join("testdata", "recordings", name+".rec.jsonl")
}

func loadScenario(t *testing.T, name string) *wsnq.Scenario {
	t.Helper()
	src, err := os.ReadFile(scenarioPath(name))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := wsnq.ParseScenario(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if sc.Name() != name {
		t.Fatalf("scenario file %s names itself %q", scenarioPath(name), sc.Name())
	}
	return sc
}

// TestGoldenScenarioReplays replays every committed recording and
// checks the outcome digest against the pinned table. With WSNQ_REGEN=1
// it instead re-records every golden scenario and prints the digests to
// pin.
func TestGoldenScenarioReplays(t *testing.T) {
	if os.Getenv("WSNQ_REGEN") != "" {
		regenGoldenRecordings(t)
		return
	}
	for name, want := range goldenOutcomes {
		t.Run(name, func(t *testing.T) {
			sc := loadScenario(t, name)
			rec, err := os.ReadFile(recordingPath(name))
			if err != nil {
				t.Fatal(err)
			}
			if len(rec) > maxRecordingBytes {
				t.Errorf("recording %s is %d bytes, over the %d-byte fixture budget",
					recordingPath(name), len(rec), maxRecordingBytes)
			}
			out, err := wsnq.ReplayRecording(bytes.NewReader(rec))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Replayed() {
				t.Error("outcome not marked replayed")
			}
			if got := out.Hash(); got != want {
				t.Errorf("replayed outcome digest changed:\n  got  %s\n  want %s\n"+
					"The recording no longer replays to the pinned outcome. If the\n"+
					"change is intentional, re-pin with WSNQ_REGEN=1.", got, want)
			}
			if len(out.Verdicts()) == 0 || len(out.Series()) == 0 {
				t.Error("replayed outcome is empty")
			}
			// The recording must belong to the committed scenario file.
			if sc.Rounds() <= 0 || len(out.Verdicts())%sc.Rounds() != 0 {
				t.Errorf("verdict count %d is not a multiple of the scenario's %d rounds",
					len(out.Verdicts()), sc.Rounds())
			}
			// A scenario with adapt policies must re-derive a non-empty
			// decision log from the recorded point stream.
			if sc.AdaptPolicies() != "" && len(out.AdaptDecisions()) == 0 {
				t.Error("adapt scenario replayed with an empty decision log")
			}
		})
	}
}

// TestGoldenRecordingsRerecord: re-recording every golden scenario
// reproduces its committed recording byte for byte, and the live
// outcome hashes to the pinned digest. TestGoldenScenarioReplays alone
// would keep passing on a recording the current code no longer writes.
func TestGoldenRecordingsRerecord(t *testing.T) {
	if os.Getenv("WSNQ_REGEN") != "" {
		t.Skip("WSNQ_REGEN=1 rewrites the recordings")
	}
	for name, want := range goldenOutcomes {
		t.Run(name, func(t *testing.T) {
			sc := loadScenario(t, name)
			var buf bytes.Buffer
			out, err := wsnq.RecordScenario(context.Background(), sc, &buf)
			if err != nil {
				t.Fatal(err)
			}
			committed, err := os.ReadFile(recordingPath(name))
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.Bytes(); !bytes.Equal(got, committed) {
				gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(committed, []byte("\n"))
				i := 0
				for i < len(gotLines) && i < len(wantLines) && bytes.Equal(gotLines[i], wantLines[i]) {
					i++
				}
				t.Errorf("re-recording differs from %s (%d bytes, committed %d) from line %d:\n  got  %s\n  want %s\n"+
					"If the change is intentional, re-pin with WSNQ_REGEN=1.",
					recordingPath(name), len(got), len(committed), i+1, lineAt(gotLines, i), lineAt(wantLines, i))
			}
			if got := out.Hash(); got != want {
				t.Errorf("live outcome digest %s, pinned %s", got, want)
			}
		})
	}
}

// lineAt returns lines[i], or nil past the end.
func lineAt(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}

func regenGoldenRecordings(t *testing.T) {
	if err := os.MkdirAll(filepath.Join("testdata", "recordings"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name := range goldenOutcomes {
		sc := loadScenario(t, name)
		var buf bytes.Buffer
		out, err := wsnq.RecordScenario(context.Background(), sc, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if buf.Len() > maxRecordingBytes {
			t.Fatalf("%s: recording is %d bytes, over the %d-byte fixture budget — shrink the scenario",
				name, buf.Len(), maxRecordingBytes)
		}
		if err := os.WriteFile(recordingPath(name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("\t%q: %q,\n", name, out.Hash())
	}
	t.Log("recordings regenerated; paste the printed digests into goldenOutcomes")
}

// TestScenarioLiveReplayDifferential is the determinism contract: for
// every golden scenario, a live run, the run that produced a recording,
// and the recording's replay must agree on every series point, alert
// transition, and verdict.
func TestScenarioLiveReplayDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("live differential runs every golden scenario twice")
	}
	for name := range goldenOutcomes {
		t.Run(name, func(t *testing.T) {
			sc := loadScenario(t, name)
			live, err := wsnq.RunScenario(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			recorded, err := wsnq.RecordScenario(context.Background(), sc, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if recorded.Hash() != live.Hash() {
				t.Fatalf("recording changed the live outcome: %s vs %s", recorded.Hash(), live.Hash())
			}
			replayed, err := wsnq.ReplayRecording(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replayed.Series(), live.Series()) {
				t.Error("replayed series differ from live")
			}
			if !reflect.DeepEqual(replayed.Alerts(), live.Alerts()) {
				t.Errorf("replayed alert log differs from live:\n got %+v\nwant %+v",
					replayed.Alerts(), live.Alerts())
			}
			if !reflect.DeepEqual(replayed.Verdicts(), live.Verdicts()) {
				t.Error("replayed verdicts differ from live")
			}
			if replayed.Hash() != live.Hash() {
				t.Errorf("replay hash %s != live hash %s", replayed.Hash(), live.Hash())
			}
		})
	}
}

// TestScenarioReplaySpeedup: replaying the lossy-storm recording must
// beat re-simulating it live by at least 50x — the point of shipping
// recordings as test fixtures.
func TestScenarioReplaySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	sc := loadScenario(t, "lossy-storm")

	// Both sides keep their fastest repetition, so scheduler noise
	// cannot inflate one side of the ratio only: the best of three live
	// runs against the best of five replays (replays are
	// sub-millisecond, so they need more samples).
	var buf bytes.Buffer
	var liveDur time.Duration
	for i := 0; i < 3; i++ {
		buf.Reset()
		start := time.Now()
		if _, err := wsnq.RecordScenario(context.Background(), sc, &buf); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); i == 0 || d < liveDur {
			liveDur = d
		}
	}

	rec := buf.Bytes()
	var best time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := wsnq.ReplayRecording(bytes.NewReader(rec)); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	speedup := float64(liveDur) / float64(best)
	t.Logf("live %v, replay %v — %.0fx", liveDur, best, speedup)
	if speedup < 50 {
		t.Errorf("replay speedup %.1fx, want >= 50x (live %v, replay %v)", speedup, liveDur, best)
	}
}

// BenchmarkReplayRecording measures the replay side of
// TestScenarioReplaySpeedup's ratio: one replay of the committed
// lossy-storm recording.
func BenchmarkReplayRecording(b *testing.B) {
	rec, err := os.ReadFile(recordingPath("lossy-storm"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wsnq.ReplayRecording(bytes.NewReader(rec)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScenarioServe boots a query-server fleet from the serve-load
// scenario and checks the hosted query's answers match a standalone
// scenario simulation round for round — the served path and the
// scenario path must be the same deployment and protocol code.
func TestScenarioServe(t *testing.T) {
	sc := loadScenario(t, "serve-load")
	alg := sc.Algorithms()[0]

	srv := wsnq.NewServer(wsnq.ServerConfig{})
	if err := srv.AddFleetScenario("fleet0", sc); err != nil {
		t.Fatal(err)
	}
	id, err := srv.Register(wsnq.QuerySpec{Fleet: "fleet0", Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}

	sim, err := wsnq.NewScenarioSimulation(sc, alg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < sc.Rounds(); round++ {
		srv.Advance()
		up, ok := srv.Latest(id)
		if !ok {
			t.Fatalf("round %d: no update", round)
		}
		if up.Failed != "" {
			t.Fatalf("round %d: query failed: %s", round, up.Failed)
		}
		res, err := sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		if up.Quantile != res.Quantile || up.Oracle != res.Oracle {
			t.Fatalf("round %d: served answer (q=%d oracle=%d) != standalone (q=%d oracle=%d)",
				round, up.Quantile, up.Oracle, res.Quantile, res.Oracle)
		}
	}
}

// TestScenarioSimulationFaults: a scenario's fault plan carries into
// NewScenarioSimulation — the crash window must surface as degraded or
// orphaned rounds.
func TestScenarioSimulationFaults(t *testing.T) {
	sc := loadScenario(t, "crash-recovery")
	sim, err := wsnq.NewScenarioSimulation(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	sawFault := false
	for round := 0; round < sc.Rounds(); round++ {
		res, err := sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || res.Orphans > 0 || res.Reinit {
			sawFault = true
		}
	}
	if !sawFault {
		t.Error("crash-recovery scenario simulation never showed fault effects")
	}
}
