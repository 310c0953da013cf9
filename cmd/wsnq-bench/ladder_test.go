package main

import (
	"os"
	"slices"
	"testing"

	"wsnq/internal/benchfmt"
)

// TestLadderOverheadGuard holds every layered rung to overheadBudget
// over its base, measured exactly as `wsnq-bench -json` measures it:
// interleaved with the base, fastest of six reps per side. Opt-in
// (LADDER_GUARD=1) because wall-clock ratios are meaningless on a
// loaded machine; the session records the same rungs every time.
//
//	LADDER_GUARD=1 go test -run TestLadderOverheadGuard -v ./cmd/wsnq-bench/
func TestLadderOverheadGuard(t *testing.T) {
	if os.Getenv("LADDER_GUARD") != "1" {
		t.Skip("timing guard; set LADDER_GUARD=1 to run")
	}
	l := newLadder()
	for _, r := range l.rungs {
		if r.base == "" {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			s, err := l.measure(r, 6)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s %d ns/op, %s %d ns/op, overhead %+.2f%%",
				r.base, s.base.NsPerOp(), r.name, s.rung.NsPerOp(), 100*s.overhead())
			if s.overhead() > overheadBudget {
				t.Errorf("%s costs %.2f%% over %s (> %.0f%% budget)",
					r.name, 100*s.overhead(), r.base, 100*overheadBudget)
			}
		})
	}
}

// TestLadderRungs checks the table without timing anything: names are
// unique, every base is a bare rung of the table, and every rung but
// the whole-study EngineCompare is a tracked hot path, so the
// cross-session regression guard watches it.
func TestLadderRungs(t *testing.T) {
	l := newLadder()
	tracked := benchfmt.TrackedHotPaths()
	seen := make(map[string]bool)
	for _, r := range l.rungs {
		if seen[r.name] {
			t.Errorf("duplicate rung %s", r.name)
		}
		seen[r.name] = true
		if r.base != "" {
			if b, ok := l.rung(r.base); !ok || b.base != "" {
				t.Errorf("%s: base %q is not a bare rung", r.name, r.base)
			}
		}
		if r.name != "EngineCompare" && !slices.Contains(tracked, r.name) {
			t.Errorf("rung %s is not in benchfmt.TrackedHotPaths", r.name)
		}
	}
	for _, name := range tracked {
		if !seen[name] {
			t.Errorf("tracked hot path %s has no rung", name)
		}
	}
}
