package wsnq

import (
	"sort"
	"sync"

	"wsnq/internal/adapt"
	"wsnq/internal/experiment"
)

// AdaptDecision is one closed-loop controller firing: which policy
// trigger stood at which level on which round, and the action taken.
// Decisions record intent, not actuation outcome, so a replayed run
// re-derives the identical log from the same point stream.
type AdaptDecision = adapt.Decision

// Controller is the closed-loop adaptation layer: a declarative policy
// set ("on storm(warn) do switch iq; on burnrate do reroot") that turns
// alert transitions — refinement storms, energy burn rates, rank-error
// excursions, orphaned subtrees, SLO budget burn — into protocol
// actions against the running simulation: pinning the §4.2 adaptive
// hybrid to IQ or HBC, widening or narrowing IQ's Ξ interval, and
// proactively re-rooting the tree away from a dying relay.
//
// Attach it to a study with WithAdaptation: the engine then builds one
// deterministic per-run controller from the policy set and collects
// every run's decision log here. Controllers never force sequential
// execution — per-run decisions depend only on that run's point
// stream, and Decisions returns the logs in grid order — so adaptive
// studies stay bit-identical at any parallelism.
// For a live round-by-round simulation use Simulation.SetController.
//
// The policy grammar (see DESIGN.md §4k):
//
//	on TRIGGER[(warn|crit)] do ACTION [hold N] [cooldown N]
//
// joined with ";". TRIGGER is any alert preset (storm, burnrate,
// excursion, orphan, gc, heap, sloburn, slospend); ACTION is
// "switch iq|hbc|pos", "widen F", "narrow F" (F > 1), or "reroot".
// The level defaults to warn, hold to 1 (rounds the level must stand
// before firing), cooldown to 8 (minimum rounds between fires — the
// flap damper).
type Controller struct {
	policies []adapt.Policy

	mu   sync.Mutex
	logs []adaptRunLog
}

// adaptRunLog is one run's decision log with its grid coordinates.
type adaptRunLog struct {
	cell, alg, run int
	ds             []adapt.Decision
}

// NewController parses a policy specification into a reusable
// controller. An empty spec is valid and yields a controller that never
// acts.
func NewController(spec string) (*Controller, error) {
	ps, err := adapt.Parse(spec)
	if err != nil {
		return nil, err
	}
	return &Controller{policies: ps}, nil
}

// String renders the policy set in its canonical grammar form —
// NewController(c.String()) reproduces the controller exactly.
func (c *Controller) String() string { return adapt.Format(c.policies) }

// engineOptions renders the controller as engine adaptation options;
// nil when the policy set is empty.
func (c *Controller) engineOptions() *experiment.AdaptOptions {
	if len(c.policies) == 0 {
		return nil
	}
	return &experiment.AdaptOptions{
		Policies: c.policies,
		Log: func(j experiment.TraceJob, _ string, ds []adapt.Decision) {
			c.mu.Lock()
			c.logs = append(c.logs, adaptRunLog{cell: j.Cell, alg: j.Algorithm, run: j.Run, ds: ds})
			c.mu.Unlock()
		},
	}
}

// Decisions returns every collected decision in deterministic grid
// order — sweep cells, then algorithms, then runs, then firing order
// within the run — regardless of how the engine scheduled the runs.
// Each decision's Key is the run's series key, so logs from compared
// algorithms stay distinguishable.
func (c *Controller) Decisions() []AdaptDecision {
	c.mu.Lock()
	logs := make([]adaptRunLog, len(c.logs))
	copy(logs, c.logs)
	c.mu.Unlock()
	sort.SliceStable(logs, func(i, j int) bool {
		a, b := logs[i], logs[j]
		if a.cell != b.cell {
			return a.cell < b.cell
		}
		if a.alg != b.alg {
			return a.alg < b.alg
		}
		return a.run < b.run
	})
	var out []AdaptDecision
	for _, l := range logs {
		out = append(out, l.ds...)
	}
	return out
}

// Reset discards the collected decision logs, so one controller can be
// reused across studies without mixing their decisions.
func (c *Controller) Reset() {
	c.mu.Lock()
	c.logs = nil
	c.mu.Unlock()
}

// WithAdaptation attaches a closed-loop adaptation controller to the
// study: every simulation run gets its own deterministic policy
// evaluator whose fired actions — protocol switches, Ξ rescaling,
// proactive reroots — apply to that run between rounds, and whose
// decision log lands in c (read it with Decisions after the study).
// Adaptation does not force sequential execution. A nil c (or one with
// no policies) detaches.
func WithAdaptation(c *Controller) Option {
	return func(o *engineOptions) {
		if c == nil {
			o.exp.Adapt = nil
			return
		}
		o.exp.Adapt = c.engineOptions()
	}
}
