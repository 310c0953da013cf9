package alert

import (
	"fmt"
	"strconv"
	"strings"
)

// The rule grammar (also documented in DESIGN.md §4e):
//
//	rules   = rule *( ";" rule )
//	rule    = preset | [ name "=" ] expr
//	expr    = metric [ ":" agg "(" window ")" ] cmp warn [ "," crit ]
//	metric  = frames | messages | joules | bits | validation_bits |
//	          refinement_bits | shipping_bits | other_bits |
//	          rank_error | refines | retries | orphans | adapts |
//	          deficit | staleness | step_ms | slo_burn | slo_spend |
//	          hot_joules | lifetime | heap_bytes | goroutines |
//	          gc_pause_ms | alloc_bytes | allocs
//	agg     = last | mean | max | min | sum | p95 | rate | nz
//	cmp     = ">" | ">=" | "<" | "<="
//	preset  = storm | burnrate | excursion | orphan | gc | heap |
//	          sloburn | slospend
//
// Omitting the aggregate defaults to last(1) — compare every round's
// raw value. "rate" is the per-round rate of change across the window;
// "nz" counts the window's non-zero rounds. A preset may be renamed
// with "name=preset". Whitespace is free around every token.

// Presets returns the named built-in rules:
//
//	storm     — refinement storm: ≥2 refinement requests in one round
//	            within an 8-round window warns, ≥4 is critical. IQ by
//	            construction issues at most one collection per round,
//	            so only iterating algorithms (HBC's histogram descent)
//	            can trip it.
//	burnrate  — energy burn-rate: the projected rounds until the
//	            hottest node exhausts its budget (from the HotJoules
//	            drain over a 32-round window) falls under 4000 (warn)
//	            or 1000 (crit) rounds.
//	excursion — quantile-error excursion: ≥4 of the last 16 rounds
//	            decided with a non-zero rank error warns, ≥8 is
//	            critical.
//	orphan    — unrepaired routing damage: any round of the last 8
//	            decided with alive-but-orphaned nodes warns; ≥6 such
//	            rounds (the repair machinery is not keeping up, e.g.
//	            a standing partition) is critical.
//	gc        — GC pressure on a profiled run: the worst per-round p95
//	            stop-the-world pause over a 16-round window reaches
//	            5ms (warn) or 50ms (crit). Only fires on runs with an
//	            attached Prof recorder (the column is zero otherwise).
//	heap      — heap growth on a profiled run: live heap over an
//	            8-round window reaches 256MiB (warn) or 1GiB (crit).
//	            Only fires on profiled runs, like gc.
//	sloburn   — SLO budget burn (internal/slo): the slo_burn gauge —
//	            min(fast, slow) window burn rate, so both windows must
//	            agree — reaches the SRE playbook thresholds 6 (warn)
//	            or 14.4 (crit). Only fires on runs with an attached
//	            SLO tracker (the column is zero otherwise).
//	slospend  — SLO budget exhaustion: the slo_spend gauge (fraction
//	            of the rolling error budget consumed) reaches 75%
//	            (warn) or 100% (crit), like sloburn only on runs with
//	            an SLO tracker.
func Presets() []Rule {
	return []Rule{
		{Name: "storm", Metric: "refines", Agg: "max", Window: 8, Cmp: ">=", Warn: 2, Crit: 4, HasCrit: true},
		{Name: "burnrate", Metric: metricLifetime, Agg: "rate", Window: 32, Cmp: "<", Warn: 4000, Crit: 1000, HasCrit: true},
		{Name: "excursion", Metric: "rank_error", Agg: "nz", Window: 16, Cmp: ">=", Warn: 4, Crit: 8, HasCrit: true},
		{Name: "orphan", Metric: "orphans", Agg: "nz", Window: 8, Cmp: ">=", Warn: 1, Crit: 6, HasCrit: true},
		{Name: "gc", Metric: "gc_pause_ms", Agg: "max", Window: 16, Cmp: ">=", Warn: 5, Crit: 50, HasCrit: true},
		{Name: "heap", Metric: "heap_bytes", Agg: "max", Window: 8, Cmp: ">=", Warn: 256 << 20, Crit: 1 << 30, HasCrit: true},
		{Name: "sloburn", Metric: "slo_burn", Agg: "last", Window: 1, Cmp: ">=", Warn: 6, Crit: 14.4, HasCrit: true},
		{Name: "slospend", Metric: "slo_spend", Agg: "last", Window: 1, Cmp: ">=", Warn: 0.75, Crit: 1, HasCrit: true},
	}
}

// preset looks up a built-in rule by name.
func preset(name string) (Rule, bool) {
	for _, r := range Presets() {
		if r.Name == name {
			return r, true
		}
	}
	return Rule{}, false
}

// ParseRules parses a semicolon-separated rule list in the grammar
// above. Empty segments are skipped; an empty spec yields no rules.
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// parseRule parses a single rule or preset reference.
func parseRule(s string) (Rule, error) {
	s = strings.TrimSpace(s)
	name := ""
	// An optional "name=" prefix ends at the first '=' that is not
	// part of a ">=" / "<=" comparator.
	expr := s
	if cmp := strings.IndexAny(s, "<>"); true {
		head := s
		if cmp >= 0 {
			head = s[:cmp]
		}
		if eq := strings.Index(head, "="); eq >= 0 {
			name = strings.TrimSpace(s[:eq])
			expr = strings.TrimSpace(s[eq+1:])
			if name == "" {
				return Rule{}, fmt.Errorf("alert: empty rule name in %q", s)
			}
		}
	}

	// Preset reference (optionally renamed).
	if r, ok := preset(expr); ok {
		if name != "" {
			r.Name = name
		}
		return r, nil
	}

	cmpIdx := strings.IndexAny(expr, "<>")
	if cmpIdx < 0 {
		return Rule{}, fmt.Errorf("alert: %q is neither a preset (storm, burnrate, excursion, orphan, gc, heap, sloburn, slospend) nor a threshold expression", expr)
	}
	cmp := expr[cmpIdx : cmpIdx+1]
	rest := expr[cmpIdx+1:]
	if strings.HasPrefix(rest, "=") {
		cmp += "="
		rest = rest[1:]
	}

	r := Rule{Name: name, Cmp: cmp, Agg: "last", Window: 1}
	head := strings.TrimSpace(expr[:cmpIdx])
	if colon := strings.Index(head, ":"); colon >= 0 {
		r.Metric = strings.TrimSpace(head[:colon])
		agg := strings.TrimSpace(head[colon+1:])
		open := strings.Index(agg, "(")
		if open < 0 || !strings.HasSuffix(agg, ")") {
			return Rule{}, fmt.Errorf("alert: aggregate %q wants the form agg(window)", agg)
		}
		r.Agg = strings.TrimSpace(agg[:open])
		w, err := strconv.Atoi(strings.TrimSpace(agg[open+1 : len(agg)-1]))
		if err != nil {
			return Rule{}, fmt.Errorf("alert: bad window in %q: %v", agg, err)
		}
		r.Window = w
	} else {
		r.Metric = head
	}
	if r.Metric == metricLifetime && r.Agg == "last" && r.Window == 1 {
		// A bare lifetime threshold still needs a drain window.
		r.Agg, r.Window = "rate", 32
	}

	warnS, critS, hasCrit := strings.Cut(rest, ",")
	warn, err := strconv.ParseFloat(strings.TrimSpace(warnS), 64)
	if err != nil {
		return Rule{}, fmt.Errorf("alert: bad warn threshold in %q: %v", s, err)
	}
	r.Warn = warn
	if hasCrit {
		crit, err := strconv.ParseFloat(strings.TrimSpace(critS), 64)
		if err != nil {
			return Rule{}, fmt.Errorf("alert: bad crit threshold in %q: %v", s, err)
		}
		r.Crit, r.HasCrit = crit, true
	}
	if r.Name == "" {
		r.Name = r.Metric
	}
	if err := r.Validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}
