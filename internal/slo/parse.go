package slo

import (
	"fmt"
	"strconv"
	"strings"
)

// The spec grammar, shared by the -slo tool flags, serve query specs,
// and the scenario DSL's `slo` key:
//
//	spec  = signal *( <space> key "=" value )
//	specs = spec *( ";" spec )
//
// where signal is rank, fresh, or latency and the keys are
//
//	name       display name              (default: the signal)
//	objective  good-round target in (0,1) (default 0.99; fresh 0.95)
//	window     budget window, rounds      (default 512)
//	fast       fast burn window, rounds   (default 8)
//	slow       slow burn window, rounds   (default 64)
//	warn       warn burn threshold        (default 6)
//	crit       crit burn threshold        (default 14.4)
//	epsilon    rank-bound ε               (rank only, default 0.05)
//	stale      staleness bound, rounds    (fresh only, default 0)
//	ms         latency bound, ms          (latency only, default 50)
//
// Example: "rank epsilon=0.02 objective=0.999; latency ms=25".

// Default window and threshold constants, exported so callers can
// document them without re-stating numbers.
const (
	DefaultWindow     = 512
	DefaultFastWindow = 8
	DefaultSlowWindow = 64
	DefaultWarnBurn   = 6
	DefaultCritBurn   = 14.4
	DefaultEpsilon    = 0.05
	DefaultLatencyMs  = 50
)

// defaultSpec returns the default spec for a signal, or an error for
// an unknown signal name.
func defaultSpec(signal string) (Spec, error) {
	sp := Spec{
		Name:       signal,
		Signal:     signal,
		Objective:  0.99,
		Window:     DefaultWindow,
		FastWindow: DefaultFastWindow,
		SlowWindow: DefaultSlowWindow,
		WarnBurn:   DefaultWarnBurn,
		CritBurn:   DefaultCritBurn,
	}
	switch signal {
	case SignalRank:
		sp.Epsilon = DefaultEpsilon
	case SignalFresh:
		// Coverage degrades in bursts under faults; a 99% objective
		// over-pages, so freshness defaults looser.
		sp.Objective = 0.95
	case SignalLatency:
		sp.LatencyMs = DefaultLatencyMs
	default:
		return Spec{}, fmt.Errorf("slo: unknown signal %q (want rank, fresh, or latency)", signal)
	}
	return sp, nil
}

// ParseSpec parses one spec ("rank epsilon=0.02 objective=0.999").
func ParseSpec(text string) (Spec, error) {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return Spec{}, fmt.Errorf("slo: empty spec")
	}
	sp, err := defaultSpec(fields[0])
	if err != nil {
		return Spec{}, err
	}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Spec{}, fmt.Errorf("slo: %s: %q is not key=value", sp.Signal, f)
		}
		switch key {
		case "name":
			if val == "" {
				return Spec{}, fmt.Errorf("slo: %s: empty name", sp.Signal)
			}
			sp.Name = val
		case "objective":
			if sp.Objective, err = parseFloat(sp.Signal, key, val); err != nil {
				return Spec{}, err
			}
		case "window":
			if sp.Window, err = parseInt(sp.Signal, key, val); err != nil {
				return Spec{}, err
			}
		case "fast":
			if sp.FastWindow, err = parseInt(sp.Signal, key, val); err != nil {
				return Spec{}, err
			}
		case "slow":
			if sp.SlowWindow, err = parseInt(sp.Signal, key, val); err != nil {
				return Spec{}, err
			}
		case "warn":
			if sp.WarnBurn, err = parseFloat(sp.Signal, key, val); err != nil {
				return Spec{}, err
			}
		case "crit":
			if sp.CritBurn, err = parseFloat(sp.Signal, key, val); err != nil {
				return Spec{}, err
			}
		case "epsilon":
			if sp.Signal != SignalRank {
				return Spec{}, fmt.Errorf("slo: %s: epsilon applies to rank only", sp.Signal)
			}
			if sp.Epsilon, err = parseFloat(sp.Signal, key, val); err != nil {
				return Spec{}, err
			}
		case "stale":
			if sp.Signal != SignalFresh {
				return Spec{}, fmt.Errorf("slo: %s: stale applies to fresh only", sp.Signal)
			}
			if sp.MaxStale, err = parseInt(sp.Signal, key, val); err != nil {
				return Spec{}, err
			}
		case "ms":
			if sp.Signal != SignalLatency {
				return Spec{}, fmt.Errorf("slo: %s: ms applies to latency only", sp.Signal)
			}
			if sp.LatencyMs, err = parseFloat(sp.Signal, key, val); err != nil {
				return Spec{}, err
			}
		default:
			return Spec{}, fmt.Errorf("slo: %s: unknown key %q", sp.Signal, key)
		}
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// ParseSpecs parses a semicolon-separated spec list; empty elements
// are skipped so trailing semicolons are harmless.
func ParseSpecs(text string) ([]Spec, error) {
	var out []Spec
	names := make(map[string]bool)
	for _, part := range strings.Split(text, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		sp, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		if names[sp.Name] {
			return nil, fmt.Errorf("slo: duplicate spec name %q", sp.Name)
		}
		names[sp.Name] = true
		out = append(out, sp)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: empty spec")
	}
	return out, nil
}

// String renders the spec in canonical grammar form: every field
// explicit, fixed key order, so ParseSpec(s.String()) round-trips to
// an identical spec and scenario files stay byte-stable.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Signal)
	fmt.Fprintf(&b, " name=%s", s.Name)
	fmt.Fprintf(&b, " objective=%s", fmtFloat(s.Objective))
	fmt.Fprintf(&b, " window=%d fast=%d slow=%d", s.Window, s.FastWindow, s.SlowWindow)
	fmt.Fprintf(&b, " warn=%s crit=%s", fmtFloat(s.WarnBurn), fmtFloat(s.CritBurn))
	switch s.Signal {
	case SignalRank:
		fmt.Fprintf(&b, " epsilon=%s", fmtFloat(s.Epsilon))
	case SignalFresh:
		fmt.Fprintf(&b, " stale=%d", s.MaxStale)
	case SignalLatency:
		fmt.Fprintf(&b, " ms=%s", fmtFloat(s.LatencyMs))
	}
	return b.String()
}

// FormatSpecs renders specs as a semicolon-joined flag value.
func FormatSpecs(specs []Spec) string {
	parts := make([]string, len(specs))
	for i, sp := range specs {
		parts[i] = sp.String()
	}
	return strings.Join(parts, "; ")
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func parseFloat(signal, key, val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("slo: %s: bad %s %q", signal, key, val)
	}
	return v, nil
}

func parseInt(signal, key, val string) (int, error) {
	v, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("slo: %s: bad %s %q", signal, key, val)
	}
	return v, nil
}
