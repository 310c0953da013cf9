package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"wsnq/internal/adapt"
	"wsnq/internal/alert"
	"wsnq/internal/series"
	"wsnq/internal/slo"
)

// Recording format constants. The version bumps on any change to the
// record shapes below; Replay rejects recordings it does not speak.
const (
	recordingFormat  = "wsnq-recording"
	recordingVersion = 1
)

// maxPresize bounds how many verdicts, and points per key, a replay
// reserves from the header's sizes before reading a round: the header
// is a few lines of text, and its runs × rounds × algorithms × sweep
// values can name terabytes.
const maxPresize = 1 << 14

// maxRecordBytes bounds one recording line (the header carries the full
// canonical scenario text, so it dwarfs the round records).
const maxRecordBytes = 4 << 20

// Header is the first record of every recording: the format marker and
// the embedded canonical scenario, self-describing and self-verifying.
// Replay re-parses Scenario, requires it to be canonical, and checks
// SHA256 against it, so a recording cannot silently drift from the
// scenario that produced it.
type Header struct {
	Format   string `json:"format"`
	Version  int    `json:"version"`
	Scenario string `json:"scenario"`
	SHA256   string `json:"sha256"`
}

// runMarker opens one grid job's stream; replay resets the alert
// engine's windows for the key, mirroring the live StartRun.
type runMarker struct {
	Key string `json:"key"`
}

// roundRecord is one round of one key: the root's verdict and the
// round-stamped span-1 series point exactly as the live PointSink saw
// it. The recorder writes it as encoding/json would (encoder.round),
// whose shortest float form round-trips float64 losslessly, so
// replaying these points is bit-identical.
type roundRecord struct {
	Key     string       `json:"key"`
	Answer  int          `json:"answer"`
	K       int          `json:"k"`
	RankErr int          `json:"rank_err"`
	Point   series.Point `json:"point"`
}

// fileRecord is one JSONL line: exactly one of the three fields is set.
type fileRecord struct {
	Header *Header      `json:"header,omitempty"`
	Run    *runMarker   `json:"run,omitempty"`
	Round  *roundRecord `json:"round,omitempty"`
}

// openRecording reads and verifies a recording's header line and
// returns the embedded scenario with a scanner over the records after
// it. The scanner reads r directly, through one buffer that starts
// small and grows only for a longer line (the header, which carries
// the scenario text), up to maxRecordBytes.
func openRecording(r io.Reader) (*bufio.Scanner, *Scenario, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxRecordBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, nil, fmt.Errorf("scenario: reading recording header: %w", err)
		}
		return nil, nil, fmt.Errorf("scenario: recording is empty: %w", io.EOF)
	}
	s, err := parseHeader(sc.Bytes())
	if err != nil {
		return nil, nil, err
	}
	return sc, s, nil
}

// parseHeader decodes and verifies a recording's header line.
func parseHeader(line []byte) (*Scenario, error) {
	var rec fileRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("scenario: bad recording header: %w", err)
	}
	if rec.Header == nil {
		return nil, fmt.Errorf("scenario: recording does not start with a header record")
	}
	h := rec.Header
	if h.Format != recordingFormat {
		return nil, fmt.Errorf("scenario: recording format %q (want %q)", h.Format, recordingFormat)
	}
	if h.Version != recordingVersion {
		return nil, fmt.Errorf("scenario: recording version %d (want %d)", h.Version, recordingVersion)
	}
	s, err := Parse(h.Scenario)
	if err != nil {
		return nil, fmt.Errorf("scenario: embedded scenario: %w", err)
	}
	if s.String() != h.Scenario {
		return nil, fmt.Errorf("scenario: embedded scenario text is not canonical")
	}
	// The text is canonical, so its hash is the scenario's Hash.
	if sum := hashText(h.Scenario); sum != h.SHA256 {
		return nil, fmt.Errorf("scenario: header hash %.12s… does not match embedded scenario (%.12s…)", h.SHA256, sum)
	}
	return s, nil
}

// Replay streams a recording back through the series store and alert
// engine offline, reconstructing — bit for bit — the Outcome of the
// live run that produced it: same snapshots, same alert transitions,
// same verdicts, same Hash. Only Metrics is absent (replay never
// re-simulates), which is also why replay runs orders of magnitude
// faster than live.
func Replay(r io.Reader) (*Outcome, error) {
	return replay(r, nil)
}

// replayBudget extracts the per-node energy supply that alert burn-rate
// rules and adapt controllers project against — the same value the live
// engine pulls from the built config.
func replayBudget(s *Scenario) (float64, error) {
	if len(s.Alerts) == 0 && len(s.Adapt) == 0 {
		return 0, nil
	}
	cfg, err := s.Config()
	if err != nil {
		return 0, err
	}
	return cfg.Energy.InitialBudget, nil
}

// replayControllers re-derives the closed-loop decision stream offline.
// Live, the engine gives every grid job a fresh controller observing the
// job's stamped points; decisions are a pure function of that stream, so
// building a fresh unbound controller at each run marker and feeding it
// the replayed points reconstructs the identical log — no decisions need
// recording. Controllers are kept in marker order so the flattened log
// matches the live job-order collection.
type replayControllers struct {
	sc     *Scenario
	budget float64
	cur    map[string]*adapt.Controller
	order  []*adapt.Controller
}

func newReplayControllers(s *Scenario, budget float64) *replayControllers {
	if len(s.Adapt) == 0 {
		return nil
	}
	return &replayControllers{sc: s, budget: budget, cur: make(map[string]*adapt.Controller)}
}

func (c *replayControllers) startRun(key string) error {
	if c == nil {
		return nil
	}
	ctl, err := adapt.NewController(c.budget, c.sc.Adapt...)
	if err != nil {
		return err
	}
	c.cur[key] = ctl
	c.order = append(c.order, ctl)
	return nil
}

func (c *replayControllers) observe(key string, p series.Point) {
	if c == nil {
		return
	}
	if ctl := c.cur[key]; ctl != nil {
		ctl.Observe(key, p)
	}
}

func (c *replayControllers) decisions() []adapt.Decision {
	if c == nil {
		return nil
	}
	var ds []adapt.Decision
	for _, ctl := range c.order {
		ds = append(ds, ctl.Decisions()...)
	}
	return ds
}

// ReplayWindow re-drives only the rounds in [from, to] (as recorded)
// through fresh rule state — the exemplar debugging mode behind
// `wsnq-sim -replay -replay-window FROM:TO`. An SLO exemplar names the
// round span that tripped a burn-rate transition; replaying just that
// span shows how the windows filled, without the hours of healthy
// rounds around it.
//
// Unlike Replay, the outcome is not hash-comparable to the live run:
// the series store rebases the filtered rounds to 0 and the alert and
// SLO windows start cold at the window's edge (primed with good
// rounds, exactly like a fresh tracker). Verdicts keep their recorded
// round numbers so they line up with the exemplar.
func ReplayWindow(r io.Reader, from, to int) (*Outcome, error) {
	if from < 0 || to < from {
		return nil, fmt.Errorf("scenario: replay window %d:%d is not a round range", from, to)
	}
	return replay(r, &roundWindow{from: from, to: to})
}

// roundWindow is ReplayWindow's inclusive range of recorded rounds.
type roundWindow struct{ from, to int }

// replay is the one replay loop behind Replay (win nil) and
// ReplayWindow.
func replay(r io.Reader, win *roundWindow) (*Outcome, error) {
	sc, s, err := openRecording(r)
	if err != nil {
		return nil, err
	}

	store := series.New(s.Capacity)
	var eng *alert.Engine
	budget, err := replayBudget(s)
	if err != nil {
		return nil, err
	}
	if len(s.Alerts) > 0 {
		eng, err = alert.NewEngine(s.Alerts...)
		if err != nil {
			return nil, err
		}
		// Mirror the live engine's budget wiring so burn-rate rules
		// project against the same per-node supply.
		eng.DefaultBudget(budget)
	}
	var tracker *slo.Tracker
	if len(s.SLOs) > 0 {
		if tracker, err = slo.NewTracker(s.SLOs...); err != nil {
			return nil, err
		}
	}
	ctls := newReplayControllers(s, budget)

	out := &Outcome{Scenario: s, Replayed: true}
	if win == nil {
		// Presize for one verdict per round of every run of every
		// algorithm and sweep variant (a rounds sweep makes it a guess).
		variants := 1
		if s.Sweep != nil {
			variants = len(s.Sweep.Values)
		}
		out.Verdicts = make([]Verdict, 0, min(variants*s.Runs*len(s.Algorithms)*s.Rounds, maxPresize))
		store.Reserve(min(s.Runs*s.Rounds, maxPresize))
	}
	lineNo := 1
	var rec fileRecord
	scratch := new(roundRecord) // every round line decodes into it
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec.Round = scratch
		if err := decodeRecord(line, &rec); err != nil {
			return nil, fmt.Errorf("scenario: recording line %d: %w", lineNo, err)
		}
		switch {
		case rec.Run != nil:
			if eng != nil {
				eng.StartRun(rec.Run.Key)
			}
			if tracker != nil {
				tracker.StartRun(rec.Run.Key)
			}
			if err := ctls.startRun(rec.Run.Key); err != nil {
				return nil, err
			}
		case rec.Round != nil:
			rr := rec.Round
			p := rr.Point
			if win == nil {
				if p = store.Add(rr.Key, p); p.Round != rr.Point.Round {
					return nil, fmt.Errorf("scenario: recording line %d: key %q replays round %d where the recording says %d (truncated or reordered stream)",
						lineNo, rr.Key, p.Round, rr.Point.Round)
				}
			} else {
				if p.Round < win.from || p.Round > win.to {
					continue
				}
				// The store rebases the window to round 0; rules, the
				// SLO tracker, and the adapt controllers observe the
				// point with its recorded round so their events reference
				// the same rounds the exemplar does (controllers arm cold
				// at the window edge, like a fresh engine).
				store.Add(rr.Key, p)
			}
			if eng != nil {
				eng.Observe(rr.Key, p)
			}
			ctls.observe(rr.Key, p)
			if tracker != nil {
				// lineNo is this round record's line — the same offset
				// the live recorder stamped, so exemplars agree.
				tracker.Observe(rr.Key, slo.SampleFromPoint(p, s.measurementsFor(rr.Key), int64(lineNo)))
			}
			out.Verdicts = append(out.Verdicts, Verdict{
				Key: rr.Key, Round: p.Round,
				Answer: rr.Answer, K: rr.K, RankErr: rr.RankErr,
			})
		case rec.Header != nil:
			return nil, fmt.Errorf("scenario: recording line %d: unexpected second header", lineNo)
		default:
			return nil, fmt.Errorf("scenario: recording line %d: unknown record", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: reading recording: %w", err)
	}
	out.Series = store.Release()
	if eng != nil {
		out.Alerts = eng.Log()
	}
	if tracker != nil {
		out.SLO = tracker.Statuses()
		out.SLOEvents = tracker.Log()
	}
	out.Adapts = ctls.decisions()
	return out, nil
}
