// Package scenario is the declarative experiment layer: one scenario
// file composes everything the repo can simulate — topology and
// deployment parameters, the data source, the algorithm line-up, a
// fault plan (the PR 5 DSL embedded verbatim), ARQ recovery, alert
// rules, one optional sweep axis, rounds, runs, and seeds — and parses
// into a validated experiment run on the existing engine. Golden
// scenario files under testdata/scenarios are the repo's integration-
// test currency: run.go executes them live, recording.go captures and
// replays their per-round streams bit-identically (see DESIGN.md §4h).
//
// The format is line-oriented: one "key value" clause per line, `#`
// starting a full-line comment, blank lines ignored. Keys:
//
//	scenario NAME                      display name ([A-Za-z0-9._-])
//	nodes N | area F | range F         topology (region side, radio ρ, meters)
//	tree spt|bfs                       routing tree construction
//	values N                           measurements per node per round
//	phi F                              quantile fraction (0,1]
//	rounds N | runs N | seed N         study shape
//	loss F                             per-hop convergecast loss [0,1)
//	capacity N                         per-key series points retained
//	data synthetic universe=N period=N noise=F amplitude=F spread=F
//	data pressure skip=N pessimistic=BOOL
//	algorithms A,B,...                 TAG POS LCLL-H LCLL-S HBC HBC-NB IQ ADAPT
//	fault PLAN                         fault DSL (internal/fault); repeatable
//	arq off | arq retries=N dead=N     link-layer recovery override
//	alerts RULES                       alert rule grammar (internal/alert)
//	slo SPEC                           one SLO (internal/slo grammar); repeatable
//	adapt POLICIES                     closed-loop policies (internal/adapt grammar)
//	sweep AXIS V1,V2,...               one axis: nodes phi loss range rounds period noise
//
// Every key except fault and slo appears at most once. Parse materializes the
// defaults, so String always emits a complete canonical file and
// Parse(s.String()) reproduces s exactly — the fuzz-checked round-trip
// contract that makes the scenario text itself a stable content hash.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"wsnq/internal/adapt"
	"wsnq/internal/alert"
	"wsnq/internal/data"
	"wsnq/internal/experiment"
	"wsnq/internal/fault"
	"wsnq/internal/series"
	"wsnq/internal/sim"
	"wsnq/internal/slo"
)

// Scenario is one parsed, validated scenario. Fields mirror the file
// keys; Parse fills defaults so a Scenario is always fully concrete.
type Scenario struct {
	Name       string
	Nodes      int
	Area       float64
	RadioRange float64
	Tree       string // "spt" or "bfs"
	Values     int    // measurements per node per round
	Phi        float64
	Rounds     int
	Runs       int
	Seed       int64
	Loss       float64
	Capacity   int // series store points per key

	Data       DataSpec
	Algorithms []string

	// Optional clauses; nil/empty when absent from the file.
	Faults *fault.Plan
	ARQ    *sim.ARQConfig
	Alerts []alert.Rule
	SLOs   []slo.Spec
	Adapt  []adapt.Policy
	Sweep  *Sweep
}

// DataSpec selects the measurement source. Exactly the fields of its
// Kind are meaningful; the others stay zero so the canonical rendering
// round-trips.
type DataSpec struct {
	Kind string // "synthetic" or "pressure"

	// Synthetic parameters.
	Universe  int
	Period    int
	Noise     float64 // ψ in percent
	Amplitude float64 // sinusoid amplitude as a universe fraction (0 = default)
	Spread    float64 // central universe fraction holding the values (0 = default)

	// Pressure parameters.
	Skip        int
	Pessimistic bool
}

// Sweep is the optional one-axis parameter sweep.
type Sweep struct {
	Axis   string // nodes, phi, loss, range, rounds, period, noise
	Values []float64
}

// sweepAxes enumerates the sweepable keys; int axes take integral
// values only.
var sweepAxes = map[string]bool{
	"nodes": true, "phi": true, "loss": true, "range": true,
	"rounds": true, "period": true, "noise": true,
}

var intAxes = map[string]bool{"nodes": true, "rounds": true, "period": true}

// defaults returns the baseline scenario every file starts from: a
// small 60-node deployment sized for fast golden tests, not the paper's
// 500-node default cell.
func defaults() *Scenario {
	return &Scenario{
		Name:       "scenario",
		Nodes:      60,
		Area:       120,
		RadioRange: 35,
		Tree:       "spt",
		Values:     1,
		Phi:        0.5,
		Rounds:     25,
		Runs:       1,
		Seed:       1,
		Loss:       0,
		Capacity:   series.DefaultCapacity,
		Data:       syntheticDefaults(),
		Algorithms: []string{"IQ"},
	}
}

func syntheticDefaults() DataSpec {
	return DataSpec{Kind: "synthetic", Universe: 1 << 16, Period: 63, Noise: 10}
}

func pressureDefaults() DataSpec {
	return DataSpec{Kind: "pressure", Skip: 1}
}

// Parse parses one scenario file. Missing keys take their defaults;
// the result is validated and canonical (Parse(s.String()) == s).
func Parse(src string) (*Scenario, error) {
	s := defaults()
	seen := map[string]bool{}
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest := cutKey(line)
		if rest == "" {
			return nil, fmt.Errorf("scenario: line %d: key %q needs a value", ln+1, key)
		}
		if key != "fault" && key != "slo" {
			if seen[key] {
				return nil, fmt.Errorf("scenario: line %d: duplicate key %q", ln+1, key)
			}
			seen[key] = true
		}
		if err := s.apply(key, rest); err != nil {
			return nil, fmt.Errorf("scenario: line %d: %w", ln+1, err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// cutKey splits a clause at its first whitespace run.
func cutKey(line string) (key, rest string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return line, ""
	}
	return line[:i], strings.TrimSpace(line[i:])
}

// apply folds one clause into the scenario.
func (s *Scenario) apply(key, rest string) error {
	switch key {
	case "scenario":
		s.Name = rest
	case "nodes":
		return parseInt(rest, &s.Nodes)
	case "area":
		return parseFloat(rest, &s.Area)
	case "range":
		return parseFloat(rest, &s.RadioRange)
	case "tree":
		s.Tree = rest
	case "values":
		return parseInt(rest, &s.Values)
	case "phi":
		return parseFloat(rest, &s.Phi)
	case "rounds":
		return parseInt(rest, &s.Rounds)
	case "runs":
		return parseInt(rest, &s.Runs)
	case "seed":
		v, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return fmt.Errorf("seed: bad integer %q", rest)
		}
		s.Seed = v
	case "loss":
		return parseFloat(rest, &s.Loss)
	case "capacity":
		return parseInt(rest, &s.Capacity)
	case "data":
		return s.applyData(rest)
	case "algorithms":
		s.Algorithms = nil
		for _, a := range strings.Split(rest, ",") {
			s.Algorithms = append(s.Algorithms, strings.TrimSpace(a))
		}
	case "fault":
		p, err := fault.Parse(rest)
		if err != nil {
			return err
		}
		if s.Faults == nil {
			s.Faults = &fault.Plan{}
		}
		s.Faults.Entries = append(s.Faults.Entries, p.Entries...)
	case "arq":
		return s.applyARQ(rest)
	case "alerts":
		rules, err := alert.ParseRules(rest)
		if err != nil {
			return err
		}
		s.Alerts = rules
	case "slo":
		sp, err := slo.ParseSpec(rest)
		if err != nil {
			return err
		}
		s.SLOs = append(s.SLOs, sp)
	case "adapt":
		ps, err := adapt.Parse(rest)
		if err != nil {
			return err
		}
		if len(ps) == 0 {
			return fmt.Errorf("adapt: empty policy list")
		}
		s.Adapt = ps
	case "sweep":
		return s.applySweep(rest)
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

func (s *Scenario) applyData(rest string) error {
	fields := strings.Fields(rest)
	switch fields[0] {
	case "synthetic":
		s.Data = syntheticDefaults()
	case "pressure":
		s.Data = pressureDefaults()
	default:
		return fmt.Errorf("data: unknown kind %q (want synthetic or pressure)", fields[0])
	}
	for _, kv := range fields[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("data: bad parameter %q (want key=value)", kv)
		}
		var err error
		switch s.Data.Kind + "." + key {
		case "synthetic.universe":
			err = parseInt(val, &s.Data.Universe)
		case "synthetic.period":
			err = parseInt(val, &s.Data.Period)
		case "synthetic.noise":
			err = parseFloat(val, &s.Data.Noise)
		case "synthetic.amplitude":
			err = parseFloat(val, &s.Data.Amplitude)
		case "synthetic.spread":
			err = parseFloat(val, &s.Data.Spread)
		case "pressure.skip":
			err = parseInt(val, &s.Data.Skip)
		case "pressure.pessimistic":
			err = parseBool(val, &s.Data.Pessimistic)
		default:
			return fmt.Errorf("data: unknown %s parameter %q", s.Data.Kind, key)
		}
		if err != nil {
			return fmt.Errorf("data: %s: %w", key, err)
		}
	}
	return nil
}

func (s *Scenario) applyARQ(rest string) error {
	if rest == "off" {
		s.ARQ = &sim.ARQConfig{}
		return nil
	}
	arq := sim.DefaultARQ()
	for _, kv := range strings.Fields(rest) {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("arq: bad parameter %q (want off, retries=N, dead=N)", kv)
		}
		var err error
		switch key {
		case "retries":
			err = parseInt(val, &arq.MaxRetries)
		case "dead":
			err = parseInt(val, &arq.DeadAfter)
		default:
			return fmt.Errorf("arq: unknown parameter %q (want retries, dead)", key)
		}
		if err != nil {
			return fmt.Errorf("arq: %s: %w", key, err)
		}
	}
	s.ARQ = &arq
	return nil
}

func (s *Scenario) applySweep(rest string) error {
	axis, vals := cutKey(rest)
	if vals == "" {
		return fmt.Errorf("sweep: want \"sweep AXIS V1,V2,...\"")
	}
	sw := &Sweep{Axis: axis}
	for _, v := range strings.Split(vals, ",") {
		var f float64
		if err := parseFloat(strings.TrimSpace(v), &f); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		sw.Values = append(sw.Values, f)
	}
	s.Sweep = sw
	return nil
}

func parseInt(s string, out *int) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("bad integer %q", s)
	}
	*out = v
	return nil
}

func parseFloat(s string, out *float64) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("bad number %q", s)
	}
	*out = v
	return nil
}

func parseBool(s string, out *bool) error {
	switch s {
	case "true":
		*out = true
	case "false":
		*out = false
	default:
		return fmt.Errorf("bad boolean %q (want true or false)", s)
	}
	return nil
}

// Validate checks every field against the ranges the simulator and the
// canonical rendering support.
func (s *Scenario) Validate() error {
	if s.Name == "" || len(s.Name) > 64 || strings.IndexFunc(s.Name, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '.' || r == '_' || r == '-')
	}) >= 0 {
		return fmt.Errorf("scenario: name %q must be 1-64 chars of [A-Za-z0-9._-]", s.Name)
	}
	// A message is formatted only for the check that fails: replay
	// validates every recording's embedded scenario.
	checks := []struct {
		ok     bool
		format string
		arg    any
	}{
		{s.Nodes >= 2 && s.Nodes <= 20000, "nodes %d outside [2, 20000]", s.Nodes},
		{s.Area > 0 && s.Area <= 1e6, "area %v outside (0, 1e6]", s.Area},
		{s.RadioRange > 0 && s.RadioRange <= 1e6, "range %v outside (0, 1e6]", s.RadioRange},
		{s.Tree == "spt" || s.Tree == "bfs", "tree %q (want spt or bfs)", s.Tree},
		{s.Values >= 1 && s.Values <= 64, "values %d outside [1, 64]", s.Values},
		{s.Phi > 0 && s.Phi <= 1, "phi %v outside (0, 1]", s.Phi},
		{s.Rounds >= 1 && s.Rounds <= 1e6, "rounds %d outside [1, 1e6]", s.Rounds},
		{s.Runs >= 1 && s.Runs <= 10000, "runs %d outside [1, 10000]", s.Runs},
		{s.Loss >= 0 && s.Loss < 1, "loss %v outside [0, 1)", s.Loss},
		{s.Capacity >= 8 && s.Capacity <= 1<<20, "capacity %d outside [8, 1048576]", s.Capacity},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("scenario: "+c.format, c.arg)
		}
	}
	if err := s.Data.validate(); err != nil {
		return err
	}
	if len(s.Algorithms) == 0 {
		return fmt.Errorf("scenario: empty algorithm line-up")
	}
	dup := map[string]bool{}
	for _, a := range s.Algorithms {
		if _, err := experiment.ResolveAlgorithm(a); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if dup[a] {
			return fmt.Errorf("scenario: duplicate algorithm %q", a)
		}
		dup[a] = true
	}
	if s.Faults != nil {
		if len(s.Faults.Entries) == 0 {
			return fmt.Errorf("scenario: empty fault plan")
		}
		for _, e := range s.Faults.Entries {
			if (e.Kind == fault.Crash || e.Kind == fault.Burst) && e.Node >= s.Nodes {
				return fmt.Errorf("scenario: fault entry %q names node %d of a %d-node deployment",
					e.String(), e.Node, s.Nodes)
			}
		}
	}
	if s.ARQ != nil {
		if s.ARQ.MaxRetries < 0 || s.ARQ.MaxRetries > 100 {
			return fmt.Errorf("scenario: arq retries %d outside [0, 100]", s.ARQ.MaxRetries)
		}
		if s.ARQ.Enabled && (s.ARQ.DeadAfter < 1 || s.ARQ.DeadAfter > 100) {
			return fmt.Errorf("scenario: arq dead %d outside [1, 100]", s.ARQ.DeadAfter)
		}
	}
	for _, r := range s.Alerts {
		if err := r.Validate(); err != nil {
			return err
		}
		if !finite(r.Warn) || (r.HasCrit && !finite(r.Crit)) {
			return fmt.Errorf("scenario: alert rule %s has a non-finite threshold", r.Name)
		}
	}
	sloNames := map[string]bool{}
	for _, sp := range s.SLOs {
		if err := sp.Validate(); err != nil {
			return err
		}
		if sloNames[sp.Name] {
			return fmt.Errorf("scenario: duplicate slo name %q", sp.Name)
		}
		sloNames[sp.Name] = true
	}
	if sw := s.Sweep; sw != nil {
		if !sweepAxes[sw.Axis] {
			return fmt.Errorf("scenario: sweep axis %q (want nodes, phi, loss, range, rounds, period, or noise)", sw.Axis)
		}
		if (sw.Axis == "period" || sw.Axis == "noise") && s.Data.Kind != "synthetic" {
			return fmt.Errorf("scenario: sweep axis %q needs synthetic data", sw.Axis)
		}
		if len(sw.Values) < 1 || len(sw.Values) > 32 {
			return fmt.Errorf("scenario: sweep wants 1-32 values, got %d", len(sw.Values))
		}
		seen := map[float64]bool{}
		for _, v := range sw.Values {
			probe := *s
			if err := probe.applyAxis(sw.Axis, v); err != nil {
				return err
			}
			if seen[v] {
				return fmt.Errorf("scenario: duplicate sweep value %s", fmtFloat(v))
			}
			seen[v] = true
		}
	}
	return nil
}

func (d DataSpec) validate() error {
	switch d.Kind {
	case "synthetic":
		switch {
		case d.Universe < 2 || d.Universe > 1<<30:
			return fmt.Errorf("scenario: data universe %d outside [2, 2^30]", d.Universe)
		case d.Period < 1 || d.Period > 1e9:
			return fmt.Errorf("scenario: data period %d outside [1, 1e9]", d.Period)
		case d.Noise < 0 || d.Noise > 1000:
			return fmt.Errorf("scenario: data noise %v outside [0, 1000]", d.Noise)
		case d.Amplitude < 0 || d.Amplitude > 1:
			return fmt.Errorf("scenario: data amplitude %v outside [0, 1]", d.Amplitude)
		case d.Spread < 0 || d.Spread > 1:
			return fmt.Errorf("scenario: data spread %v outside [0, 1]", d.Spread)
		}
	case "pressure":
		if d.Skip < 1 || d.Skip > 1e6 {
			return fmt.Errorf("scenario: data skip %d outside [1, 1e6]", d.Skip)
		}
	default:
		return fmt.Errorf("scenario: data kind %q (want synthetic or pressure)", d.Kind)
	}
	return nil
}

// applyAxis sets one sweep axis value on the scenario's scalar fields,
// range-checking against the same bounds Validate enforces. It is used
// both to validate sweep values and to build the variant mutations.
func (s *Scenario) applyAxis(axis string, v float64) error {
	if intAxes[axis] && v != math.Trunc(v) {
		return fmt.Errorf("scenario: sweep %s value %s must be an integer", axis, fmtFloat(v))
	}
	switch axis {
	case "nodes":
		s.Nodes = int(v)
		if s.Nodes < 2 || s.Nodes > 20000 {
			return fmt.Errorf("scenario: sweep nodes %d outside [2, 20000]", s.Nodes)
		}
	case "phi":
		s.Phi = v
		if !(v > 0 && v <= 1) {
			return fmt.Errorf("scenario: sweep phi %v outside (0, 1]", v)
		}
	case "loss":
		s.Loss = v
		if !(v >= 0 && v < 1) {
			return fmt.Errorf("scenario: sweep loss %v outside [0, 1)", v)
		}
	case "range":
		s.RadioRange = v
		if !(v > 0 && v <= 1e6) {
			return fmt.Errorf("scenario: sweep range %v outside (0, 1e6]", v)
		}
	case "rounds":
		s.Rounds = int(v)
		if s.Rounds < 1 || s.Rounds > 1e6 {
			return fmt.Errorf("scenario: sweep rounds %d outside [1, 1e6]", s.Rounds)
		}
	case "period":
		s.Data.Period = int(v)
		if s.Data.Period < 1 || s.Data.Period > 1e9 {
			return fmt.Errorf("scenario: sweep period %d outside [1, 1e9]", s.Data.Period)
		}
	case "noise":
		s.Data.Noise = v
		if !(v >= 0 && v <= 1000) {
			return fmt.Errorf("scenario: sweep noise %v outside [0, 1000]", v)
		}
	default:
		return fmt.Errorf("scenario: unknown sweep axis %q", axis)
	}
	return nil
}

// fmtFloat renders a float in the shortest form that round-trips.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// String renders the scenario in canonical form: every scalar key in
// fixed order with defaults materialized, optional clauses last. The
// rendering is the scenario's identity — Hash digests it and recording
// headers embed it verbatim.
func (s *Scenario) String() string {
	var b strings.Builder
	line := func(key, val string) {
		b.WriteString(key)
		b.WriteByte(' ')
		b.WriteString(val)
		b.WriteByte('\n')
	}
	line("scenario", s.Name)
	line("nodes", strconv.Itoa(s.Nodes))
	line("area", fmtFloat(s.Area))
	line("range", fmtFloat(s.RadioRange))
	line("tree", s.Tree)
	line("values", strconv.Itoa(s.Values))
	line("phi", fmtFloat(s.Phi))
	line("rounds", strconv.Itoa(s.Rounds))
	line("runs", strconv.Itoa(s.Runs))
	line("seed", strconv.FormatInt(s.Seed, 10))
	line("loss", fmtFloat(s.Loss))
	line("capacity", strconv.Itoa(s.Capacity))
	switch s.Data.Kind {
	case "synthetic":
		line("data", fmt.Sprintf("synthetic universe=%d period=%d noise=%s amplitude=%s spread=%s",
			s.Data.Universe, s.Data.Period, fmtFloat(s.Data.Noise),
			fmtFloat(s.Data.Amplitude), fmtFloat(s.Data.Spread)))
	case "pressure":
		line("data", fmt.Sprintf("pressure skip=%d pessimistic=%v", s.Data.Skip, s.Data.Pessimistic))
	}
	line("algorithms", strings.Join(s.Algorithms, ","))
	if s.Faults != nil {
		line("fault", s.Faults.String())
	}
	if s.ARQ != nil {
		if !s.ARQ.Enabled {
			line("arq", "off")
		} else {
			line("arq", fmt.Sprintf("retries=%d dead=%d", s.ARQ.MaxRetries, s.ARQ.DeadAfter))
		}
	}
	if len(s.Alerts) > 0 {
		parts := make([]string, len(s.Alerts))
		for i, r := range s.Alerts {
			parts[i] = r.String()
		}
		line("alerts", strings.Join(parts, "; "))
	}
	for _, sp := range s.SLOs {
		line("slo", sp.String())
	}
	if len(s.Adapt) > 0 {
		line("adapt", adapt.Format(s.Adapt))
	}
	if s.Sweep != nil {
		vals := make([]string, len(s.Sweep.Values))
		for i, v := range s.Sweep.Values {
			vals[i] = fmtFloat(v)
		}
		line("sweep", s.Sweep.Axis+" "+strings.Join(vals, ","))
	}
	return b.String()
}

// Hash returns the SHA-256 hex digest of the canonical rendering — the
// scenario's content identity, embedded in recording headers and
// verified on replay.
func (s *Scenario) Hash() string { return hashText(s.String()) }

// hashText is the hex SHA-256 of a canonical scenario text.
func hashText(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// AlertSpec renders the alert rules back into the rule grammar ("" when
// the scenario has none).
func (s *Scenario) AlertSpec() string {
	parts := make([]string, len(s.Alerts))
	for i, r := range s.Alerts {
		parts[i] = r.String()
	}
	return strings.Join(parts, "; ")
}

// SLOSpec renders the SLO declarations back into the slo.ParseSpecs
// grammar ("" when the scenario has none).
func (s *Scenario) SLOSpec() string { return slo.FormatSpecs(s.SLOs) }

// AdaptSpec renders the closed-loop policies back into the adapt.Parse
// grammar ("" when the scenario has none).
func (s *Scenario) AdaptSpec() string { return adapt.Format(s.Adapt) }

// measurementsFor returns the per-round measurement population behind
// one series key — the N that scales the εN rank bound. Keys of a
// nodes-swept scenario carry the variant's node count as their label
// prefix ("120/IQ"); every other key uses the scenario's own shape.
func (s *Scenario) measurementsFor(key string) int {
	n := s.Nodes
	if s.Sweep != nil && s.Sweep.Axis == "nodes" {
		if label, _, ok := strings.Cut(key, "/"); ok {
			if v, err := strconv.ParseFloat(label, 64); err == nil {
				n = int(v)
			}
		}
	}
	return n * s.Values
}

// Config assembles the experiment cell the scenario describes (the
// sweep axis, when present, mutates copies of it per variant).
func (s *Scenario) Config() (experiment.Config, error) {
	cfg := experiment.Default()
	cfg.Nodes = s.Nodes
	cfg.Area = s.Area
	cfg.RadioRange = s.RadioRange
	if s.Tree == "bfs" {
		cfg.Tree = experiment.TreeBFS
	}
	cfg.ValuesPerNode = s.Values
	cfg.Phi = s.Phi
	cfg.Rounds = s.Rounds
	cfg.Runs = s.Runs
	cfg.Seed = s.Seed
	cfg.LossProb = s.Loss
	switch s.Data.Kind {
	case "synthetic":
		cfg.Dataset = experiment.DatasetSpec{
			Kind: experiment.Synthetic,
			Synthetic: data.SyntheticConfig{
				Universe:      s.Data.Universe,
				Period:        s.Data.Period,
				NoisePct:      s.Data.Noise,
				AmplitudeFrac: s.Data.Amplitude,
				SpreadFrac:    s.Data.Spread,
			},
		}
	case "pressure":
		cfg.Dataset = experiment.DatasetSpec{
			Kind:        experiment.Pressure,
			Skip:        s.Data.Skip,
			Pessimistic: s.Data.Pessimistic,
		}
	}
	if err := cfg.Validate(); err != nil {
		return experiment.Config{}, err
	}
	return cfg, nil
}

// Factories resolves the algorithm line-up into named engine factories.
func (s *Scenario) Factories() ([]experiment.NamedFactory, error) {
	out := make([]experiment.NamedFactory, len(s.Algorithms))
	for i, name := range s.Algorithms {
		f, err := experiment.ResolveAlgorithm(name)
		if err != nil {
			return nil, err
		}
		out[i] = experiment.NamedFactory{Name: name, New: f}
	}
	return out, nil
}

// Variants expands the sweep axis into engine variants (nil without a
// sweep). Labels are the canonical value renderings, so the series keys
// of a swept scenario read "label/algorithm".
func (s *Scenario) Variants() []experiment.Variant {
	if s.Sweep == nil {
		return nil
	}
	out := make([]experiment.Variant, len(s.Sweep.Values))
	for i, v := range s.Sweep.Values {
		v := v
		axis := s.Sweep.Axis
		out[i] = experiment.Variant{
			Label: fmtFloat(v),
			Mutate: func(cfg *experiment.Config) {
				switch axis {
				case "nodes":
					cfg.Nodes = int(v)
				case "phi":
					cfg.Phi = v
				case "loss":
					cfg.LossProb = v
				case "range":
					cfg.RadioRange = v
				case "rounds":
					cfg.Rounds = int(v)
				case "period":
					cfg.Dataset.Synthetic.Period = int(v)
				case "noise":
					cfg.Dataset.Synthetic.NoisePct = v
				}
			},
		}
	}
	return out
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
