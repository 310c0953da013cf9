package wsnq

import (
	"context"

	"wsnq/internal/prof"
)

// This file is the public face of the continuous-profiling layer
// (internal/prof): per-phase CPU/allocation attribution for studies,
// live simulations and query servers, attachable through the Observer
// bundle (Observer.Prof), Simulation.SetProf or ServerConfig.Prof, and
// exposed over HTTP as /profilez.

// ProfReport is a point-in-time attribution snapshot: one bucket per
// algorithm×phase with CPU seconds, allocated bytes/objects, and each
// bucket's share of the totals, sorted largest CPU consumer first.
type ProfReport = prof.Report

// ProfPhaseStat is one attribution bucket of a ProfReport.
type ProfPhaseStat = prof.PhaseStat

// Prof attributes CPU time and heap allocations to algorithm×phase
// buckets while a study or live simulation runs, and labels the
// running goroutine (algorithm, phase, run) for /debug/pprof/profile.
// Attach it to a study via Observer{Prof: p}, to a live Simulation
// with SetProf, or to a Server as ServerConfig.Prof; read the
// attribution at any time with Report (Report().WriteText renders it
// as a table), including while the study runs. Like the flight
// recorder, attaching a Prof forces strictly sequential study
// execution: the process-global allocation counters are only
// attributable when one run executes at a time.
type Prof = prof.Recorder

// NewProf returns an empty profiling recorder.
func NewProf() *Prof { return prof.NewRecorder() }

// SetProf attaches per-phase CPU/allocation attribution to the
// simulation under its algorithm name (nil detaches without flushing;
// FinishTrace flushes the open span). Call before the first Step so
// the initialization round is attributed too.
func (s *Simulation) SetProf(p *Prof) {
	if p == nil {
		s.rt.SetProf(nil)
		return
	}
	s.rt.SetProf(p.Attach(context.Background(), s.AlgorithmName(),
		"algorithm", s.AlgorithmName()))
}
