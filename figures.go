package wsnq

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"wsnq/internal/approx"
	"wsnq/internal/baseline"
	"wsnq/internal/core"
	"wsnq/internal/experiment"
	"wsnq/internal/protocol"
)

// Figure describes one reproducible artifact of the paper's evaluation
// (or one of this implementation's extension studies).
type Figure struct {
	ID          string
	Title       string
	Description string
}

// Figures lists every reproducible artifact. IDs match the paper's
// figure numbers where applicable.
func Figures() []Figure {
	return []Figure{
		{"fig6", "Synthetic, varying |N|", "max per-node energy and lifetime for |N| ∈ {125, 250, 500, 1000, 2000} (Figure 6)"},
		{"fig7", "Synthetic, varying period τ", "period τ ∈ {250, 125, 63, 32, 8} rounds (Figure 7)"},
		{"fig8", "Synthetic, varying noise ψ", "noise ψ ∈ {0, 5, 10, 20, 50} percent (Figure 8)"},
		{"fig9", "Synthetic, varying radio range ρ", "radio range ρ ∈ {15, 35, 60, 85} m (Figure 9)"},
		{"fig10", "Air pressure, varying sampling rate", "sample skip ∈ {1, 2, 4, 8, 16}, optimistic and pessimistic scaling (Figure 10)"},
		{"loss", "Extension: message loss and rank error", "per-hop loss ∈ {0, 1, 5, 10} percent, rank error of the continuous algorithms (§6 future work)"},
		{"ext-approx", "Extension: exactness vs. bounded error", "exact IQ/HBC against q-digest summaries and uniform sampling (the §3.1 algorithm classes)"},
		{"ext-snapshot", "Extension: continuous vs. repeated snapshots", "HBC/IQ against re-running the [21] snapshot search every round — what the carried state is worth"},
		{"abl-buckets", "Ablation: HBC bucket count", "HBC with b ∈ {2, 4, cost model, 16, 64}"},
		{"abl-hbcnb", "Ablation: HBC threshold-broadcast elimination", "HBC vs. the §4.1.2 variant across periods"},
		{"abl-xi", "Ablation: IQ trend window", "IQ with m ∈ {2, 4, 8, 16} and both ξ seedings"},
		{"abl-hints", "Ablation: hint encodings", "POS and IQ under two-value, max-distance and absent hints, across noise levels"},
		{"abl-tree", "Ablation: routing tree", "Euclidean SPT vs. hop-count BFS routing for every algorithm"},
		{"abl-energy", "Ablation: energy charging model", "nominal-range (paper) vs. actual-link-distance transmission costs"},
		{"abl-density", "Ablation: value density", "distribution spread 100%..1% at fast drift — where IQ's Ξ gets expensive and HBC takes over"},
	}
}

// FigureOptions scales a figure reproduction and tunes the engine
// executing it.
type FigureOptions struct {
	// Scale multiplies the paper's runs (20) and rounds (250); 1 is the
	// full paper scale, the default 0.1 gives a quick but shape-faithful
	// reproduction (2 runs × 80 rounds).
	Scale float64
	// Nodes overrides the default node count (500) of the non-|N|
	// sweeps; 0 keeps the default.
	Nodes int
	// Seed overrides the base seed.
	Seed int64
	// Parallelism bounds the engine's worker pool, as in
	// WithParallelism; 0 uses one worker per CPU, 1 runs sequentially.
	// Results are bit-identical at every setting.
	Parallelism int
	// Progress is called after each completed (cell × algorithm × run)
	// job of the figure's sweep, as in WithProgress. Figures that run
	// several sweeps (fig10, abl-tree, abl-energy) restart the count for
	// each sweep table.
	Progress func(done, total int)
	// Observer bundles the figure's observability sinks — flight
	// recorder, telemetry, per-round series, alert rules, series key
	// prefix, profiler — as in WithObserver. Attaching a Trace,
	// Telemetry, Series, Alerts, or Prof sink forces sequential
	// execution in deterministic grid order; series keys are
	// "<variant>/<algorithm>" (prefixed with Observer.Key when set).
	Observer *Observer
	// Faults, when non-nil, attaches the fault plan to every simulation
	// run of the figure, as in WithFaults: scheduled crashes, bursty
	// links, and partitions with the default ARQ recovery.
	Faults *FaultPlan
}

func (o *FigureOptions) engine() experiment.Options {
	var eo engineOptions
	eo.exp.Parallelism = o.Parallelism
	eo.exp.Progress = o.Progress
	if o.Faults != nil {
		eo.exp.Faults = o.Faults.plan
	}
	if o.Observer != nil {
		o.Observer.apply(&eo)
	}
	return eo.finish()
}

func (o *FigureOptions) apply(cfg *experiment.Config) {
	scale := o.Scale
	if scale <= 0 {
		scale = 0.1
	}
	cfg.Runs = int(math.Round(20 * scale))
	if cfg.Runs < 1 {
		cfg.Runs = 1
	}
	cfg.Rounds = int(math.Round(250 * scale))
	if cfg.Rounds < 40 {
		cfg.Rounds = 40
	}
	if cfg.Rounds > 250 {
		cfg.Rounds = 250
	}
	if o.Nodes > 0 {
		cfg.Nodes = o.Nodes
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
}

// Table is a public result grid: one row per swept variant, one column
// per algorithm.
type Table struct {
	Title    string
	RowLabel string
	Rows     []string
	Cols     []string
	cells    map[string]map[string]Metrics
}

// Cell returns the metrics of one (row, column) pair.
func (t *Table) Cell(row, col string) (Metrics, bool) {
	m, ok := t.cells[row][col]
	return m, ok
}

// Metric names accepted by Table.Format.
const (
	MetricEnergy    = "energy"    // max per-node energy [µJ/round]
	MetricLifetime  = "lifetime"  // network lifetime [rounds]
	MetricValues    = "values"    // transmitted values [per round]
	MetricFrames    = "frames"    // transmitted frames [per round]
	MetricRankError = "rankerror" // mean rank error [ranks]
	MetricGini      = "gini"      // energy-drain Gini coefficient
)

// Format renders the table for one metric as aligned text.
func (t *Table) Format(metric string) string {
	sel, err := selector(metric)
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s [%s]\n", t.Title, sel.Name, sel.Unit)
	w := 12
	fmt.Fprintf(&b, "%-*s", w, t.RowLabel)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%*s", w, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", w, r)
		for _, c := range t.Cols {
			if m, ok := t.Cell(r, c); ok {
				fmt.Fprintf(&b, "%*s", w, fmt.Sprintf(sel.Format, sel.Get(m)*sel.Scale))
			} else {
				fmt.Fprintf(&b, "%*s", w, "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SVG renders the table for one metric as a standalone SVG line chart
// (one series per algorithm). logY selects a logarithmic value axis,
// useful when TAG or LCLL-S dwarf the other curves.
func (t *Table) SVG(metric string, logY bool) (string, error) {
	sel, err := selector(metric)
	if err != nil {
		return "", err
	}
	et := &experiment.Table{
		Title:      t.Title,
		RowLabel:   t.RowLabel,
		Variants:   t.Rows,
		Algorithms: t.Cols,
		Cells:      make(map[string]experiment.Metrics),
	}
	for _, r := range t.Rows {
		for _, c := range t.Cols {
			if m, ok := t.Cell(r, c); ok {
				et.Cells[r+"\x00"+c] = m
			}
		}
	}
	chart, err := experiment.TableChart(et, sel, logY)
	if err != nil {
		return "", err
	}
	return chart.SVG()
}

// Ranking returns the columns ordered best-first (lowest value wins)
// for one row under the given metric.
func (t *Table) Ranking(row, metric string) []string {
	sel, err := selector(metric)
	if err != nil {
		return nil
	}
	cols := append([]string(nil), t.Cols...)
	sort.SliceStable(cols, func(i, j int) bool {
		mi, _ := t.Cell(row, cols[i])
		mj, _ := t.Cell(row, cols[j])
		return sel.Get(mi) < sel.Get(mj)
	})
	return cols
}

func selector(metric string) (experiment.MetricSelector, error) {
	switch metric {
	case MetricEnergy:
		return experiment.SelMaxEnergy, nil
	case MetricLifetime:
		return experiment.SelLifetime, nil
	case MetricValues:
		return experiment.SelValues, nil
	case MetricFrames:
		return experiment.SelFrames, nil
	case MetricRankError:
		return experiment.SelRankError, nil
	case MetricGini:
		return experiment.SelGini, nil
	default:
		return experiment.MetricSelector{}, fmt.Errorf("wsnq: unknown metric %q", metric)
	}
}

func fromExpTable(t *experiment.Table) *Table {
	out := &Table{
		Title:    t.Title,
		RowLabel: t.RowLabel,
		Rows:     append([]string(nil), t.Variants...),
		Cols:     append([]string(nil), t.Algorithms...),
		cells:    make(map[string]map[string]Metrics),
	}
	for _, r := range out.Rows {
		out.cells[r] = make(map[string]Metrics)
		for _, c := range out.Cols {
			if m, ok := t.Cell(r, c); ok {
				out.cells[r][c] = m
			}
		}
	}
	return out
}

// RunFigure reproduces one artifact and returns its result tables
// (fig10 returns two: optimistic and pessimistic scaling). It delegates
// to RunFigureContext with a background context.
func RunFigure(id string, opts FigureOptions) ([]*Table, error) {
	return RunFigureContext(context.Background(), id, opts)
}

// RunFigureContext reproduces one artifact on the parallel engine. Its
// sweep cells, algorithms, and runs fan out over the worker pool;
// cancelling the context aborts the remaining work.
func RunFigureContext(ctx context.Context, id string, opts FigureOptions) ([]*Table, error) {
	base := experiment.Default()
	opts.apply(&base)
	algs := experiment.StandardAlgorithms()
	sweep := func(cfg experiment.Config, title, rowLabel string, variants []experiment.Variant, lineup []experiment.NamedFactory) (*experiment.Table, error) {
		return experiment.SweepContext(ctx, cfg, title, rowLabel, variants, lineup, opts.engine())
	}

	intVariants := func(field func(*experiment.Config, int), vals ...int) []experiment.Variant {
		out := make([]experiment.Variant, len(vals))
		for i, v := range vals {
			v := v
			out[i] = experiment.Variant{
				Label:  fmt.Sprintf("%d", v),
				Mutate: func(c *experiment.Config) { field(c, v) },
			}
		}
		return out
	}

	switch id {
	case "fig6":
		t, err := sweep(base, "Figure 6: synthetic dataset", "|N|",
			intVariants(func(c *experiment.Config, v int) { c.Nodes = v }, 125, 250, 500, 1000, 2000), algs)
		return wrap(t, err)
	case "fig7":
		t, err := sweep(base, "Figure 7: synthetic dataset", "period",
			intVariants(func(c *experiment.Config, v int) { c.Dataset.Synthetic.Period = v }, 250, 125, 63, 32, 8), algs)
		return wrap(t, err)
	case "fig8":
		t, err := sweep(base, "Figure 8: synthetic dataset", "noise%",
			intVariants(func(c *experiment.Config, v int) { c.Dataset.Synthetic.NoisePct = float64(v) }, 0, 5, 10, 20, 50), algs)
		return wrap(t, err)
	case "fig9":
		t, err := sweep(base, "Figure 9: synthetic dataset", "range[m]",
			intVariants(func(c *experiment.Config, v int) { c.RadioRange = float64(v) }, 15, 35, 60, 85), algs)
		return wrap(t, err)
	case "fig10":
		var out []*Table
		for _, pess := range []bool{false, true} {
			cfg := base
			cfg.Dataset = experiment.DatasetSpec{Kind: experiment.Pressure, Pessimistic: pess}
			name := "optimistic"
			if pess {
				name = "pessimistic"
			}
			t, err := sweep(cfg, "Figure 10: air pressure ("+name+" scaling)", "skip",
				intVariants(func(c *experiment.Config, v int) { c.Dataset.Skip = v }, 1, 2, 4, 8, 16), algs)
			if err != nil {
				return nil, err
			}
			out = append(out, fromExpTable(t))
		}
		return out, nil
	case "loss":
		t, err := sweep(base, "Extension: per-hop message loss", "loss%",
			intVariants(func(c *experiment.Config, v int) { c.LossProb = float64(v) / 100 }, 0, 1, 5, 10),
			experiment.ContinuousAlgorithms())
		return wrap(t, err)
	case "ext-approx":
		lineup := []experiment.NamedFactory{
			{Name: "IQ", New: func() protocol.Algorithm { return core.NewIQ(core.DefaultIQOptions()) }},
			{Name: "HBC", New: func() protocol.Algorithm { return core.NewHBC(core.DefaultHBCOptions()) }},
			{Name: "QD(32)", New: func() protocol.Algorithm { return approx.NewQD(32) }},
			{Name: "QD(256)", New: func() protocol.Algorithm { return approx.NewQD(256) }},
			{Name: "SMPL10", New: func() protocol.Algorithm { return approx.NewSample(0.10) }},
			{Name: "SMPL50", New: func() protocol.Algorithm { return approx.NewSample(0.50) }},
		}
		t, err := sweep(base, "Extension: exact refinement vs bounded-error summaries", "period",
			intVariants(func(c *experiment.Config, v int) { c.Dataset.Synthetic.Period = v }, 250, 63, 8), lineup)
		return wrap(t, err)
	case "ext-snapshot":
		lineup := []experiment.NamedFactory{
			{Name: "IQ", New: func() protocol.Algorithm { return core.NewIQ(core.DefaultIQOptions()) }},
			{Name: "HBC", New: func() protocol.Algorithm { return core.NewHBC(core.DefaultHBCOptions()) }},
			{Name: "SNAP", New: func() protocol.Algorithm { return baseline.NewRepeatedSnapshot(0) }},
			{Name: "SNAP-b2", New: func() protocol.Algorithm { return baseline.NewRepeatedSnapshot(2) }},
		}
		t, err := sweep(base, "Extension: continuous state vs repeated snapshots", "period",
			intVariants(func(c *experiment.Config, v int) { c.Dataset.Synthetic.Period = v }, 250, 63, 8), lineup)
		return wrap(t, err)
	case "abl-energy":
		var out []*Table
		for _, byDist := range []bool{false, true} {
			cfg := base
			cfg.ChargeByDistance = byDist
			name := "nominal range (paper)"
			if byDist {
				name = "actual link distance"
			}
			t, err := sweep(cfg, "Ablation: energy charging ("+name+")", "period",
				intVariants(func(c *experiment.Config, v int) { c.Dataset.Synthetic.Period = v }, 250, 63, 8), algs)
			if err != nil {
				return nil, err
			}
			out = append(out, fromExpTable(t))
		}
		return out, nil
	case "abl-density":
		// Concentrating the value distribution packs many measurements
		// onto few distinct values: IQ's Ξ then drags a crowd along each
		// round while HBC's histograms are unaffected — the crossover
		// condition §4.2 itself warns about and the pressure dataset
		// exhibits.
		cfg := base
		cfg.Dataset.Synthetic.Period = 8 // fast drift stresses Ξ
		var variants []experiment.Variant
		for _, spreadPct := range []int{100, 25, 5, 1} {
			spreadPct := spreadPct
			variants = append(variants, experiment.Variant{
				Label: fmt.Sprintf("%d%%", spreadPct),
				Mutate: func(c *experiment.Config) {
					c.Dataset.Synthetic.SpreadFrac = float64(spreadPct) / 100
				},
			})
		}
		lineup := []experiment.NamedFactory{
			{Name: "IQ", New: func() protocol.Algorithm { return core.NewIQ(core.DefaultIQOptions()) }},
			{Name: "HBC", New: func() protocol.Algorithm { return core.NewHBC(core.DefaultHBCOptions()) }},
			{Name: "LCLL-S", New: func() protocol.Algorithm { return baseline.NewLCLL(baseline.DefaultLCLLOptions(true)) }},
		}
		t, err := sweep(cfg, "Ablation: value density (τ=8)", "spread", variants, lineup)
		return wrap(t, err)
	case "abl-hints":
		lineup := []experiment.NamedFactory{
			{Name: "POS-2val", New: func() protocol.Algorithm {
				return baseline.NewPOS(baseline.POSOptions{Hints: protocol.HintTwoValues, DirectRetrieval: true})
			}},
			{Name: "POS-dist", New: func() protocol.Algorithm {
				return baseline.NewPOS(baseline.POSOptions{Hints: protocol.HintMaxDistance, DirectRetrieval: true})
			}},
			{Name: "POS-none", New: func() protocol.Algorithm {
				return baseline.NewPOS(baseline.POSOptions{Hints: protocol.HintNone, DirectRetrieval: true})
			}},
			{Name: "IQ-dist", New: func() protocol.Algorithm { return core.NewIQ(core.DefaultIQOptions()) }},
			{Name: "IQ-2val", New: func() protocol.Algorithm {
				opts := core.DefaultIQOptions()
				opts.Hints = protocol.HintTwoValues
				return core.NewIQ(opts)
			}},
		}
		t, err := sweep(base, "Ablation: hint encodings (§5.1.6)", "noise%",
			intVariants(func(c *experiment.Config, v int) { c.Dataset.Synthetic.NoisePct = float64(v) }, 0, 10, 50), lineup)
		return wrap(t, err)
	case "abl-tree":
		var out []*Table
		for _, tree := range []experiment.TreeKind{experiment.TreeSPT, experiment.TreeBFS} {
			cfg := base
			cfg.Tree = tree
			name := "Euclidean SPT"
			if tree == experiment.TreeBFS {
				name = "hop-count BFS"
			}
			t, err := sweep(cfg, "Ablation: routing tree ("+name+")", "period",
				intVariants(func(c *experiment.Config, v int) { c.Dataset.Synthetic.Period = v }, 250, 63, 8), algs)
			if err != nil {
				return nil, err
			}
			out = append(out, fromExpTable(t))
		}
		return out, nil
	case "abl-buckets":
		var hbcs []experiment.NamedFactory
		for _, b := range []int{2, 4, 0, 16, 64} {
			b := b
			name := fmt.Sprintf("b=%d", b)
			if b == 0 {
				name = "b=model"
			}
			hbcs = append(hbcs, experiment.NamedFactory{Name: name, New: func() protocol.Algorithm {
				opts := core.DefaultHBCOptions()
				opts.Buckets = b
				return core.NewHBC(opts)
			}})
		}
		t, err := sweep(base, "Ablation: HBC bucket count", "period",
			intVariants(func(c *experiment.Config, v int) { c.Dataset.Synthetic.Period = v }, 250, 63, 8), hbcs)
		return wrap(t, err)
	case "abl-hbcnb":
		variants := intVariants(func(c *experiment.Config, v int) { c.Dataset.Synthetic.Period = v }, 250, 125, 63, 32, 8)
		t, err := sweep(base, "Ablation: HBC vs HBC-NB (§4.1.2)", "period", variants,
			[]experiment.NamedFactory{
				{Name: "HBC", New: func() protocol.Algorithm { return core.NewHBC(core.DefaultHBCOptions()) }},
				{Name: "HBC-NB", New: func() protocol.Algorithm {
					opts := core.DefaultHBCOptions()
					opts.NoThresholdBroadcast = true
					opts.DirectRetrieval = false
					return core.NewHBC(opts)
				}},
			})
		return wrap(t, err)
	case "abl-xi":
		var iqs []experiment.NamedFactory
		for _, m := range []int{2, 4, 8, 16} {
			m := m
			iqs = append(iqs, experiment.NamedFactory{Name: fmt.Sprintf("IQ m=%d", m), New: func() protocol.Algorithm {
				opts := core.DefaultIQOptions()
				opts.M = m
				return core.NewIQ(opts)
			}})
		}
		iqs = append(iqs, experiment.NamedFactory{Name: "IQ med-gap", New: func() protocol.Algorithm {
			opts := core.DefaultIQOptions()
			opts.InitMedianGap = true
			return core.NewIQ(opts)
		}})
		t, err := sweep(base, "Ablation: IQ trend window and ξ seeding", "period",
			intVariants(func(c *experiment.Config, v int) { c.Dataset.Synthetic.Period = v }, 250, 63, 8), iqs)
		return wrap(t, err)
	default:
		return nil, fmt.Errorf("wsnq: unknown figure %q (see Figures())", id)
	}
}

func wrap(t *experiment.Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{fromExpTable(t)}, nil
}
