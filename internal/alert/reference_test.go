package alert

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"wsnq/internal/level"
	"wsnq/internal/series"
)

// refEngine is the engine as it was when it kept one map entry per
// rule × key pair, found by hashing the key once per rule per point:
// the reference TestObserveMatchesReference holds the per-key state
// slices to. The embedded Engine lends it the rules, budget, log and
// aggregates; its per-key states go unused.
type refEngine struct {
	Engine
	ops    []op // each rule resolved once, like NewEngine does
	states map[refKey]*ruleState
	order  []refKey
}

type refKey struct {
	rule int
	key  string
}

func newRefEngine(rules ...Rule) *refEngine {
	e := &refEngine{
		Engine: Engine{rules: append([]Rule(nil), rules...)},
		states: make(map[refKey]*ruleState),
	}
	for i := range e.rules {
		e.ops = append(e.ops, resolve(&e.rules[i]))
	}
	return e
}

func (e *refEngine) StartRun(key string) {
	for i := range e.rules {
		if st, ok := e.states[refKey{i, key}]; ok {
			st.win.Reset()
		}
	}
}

func (e *refEngine) Observe(key string, p series.Point) {
	for i, r := range e.rules {
		sk := refKey{i, key}
		st, ok := e.states[sk]
		if !ok {
			st = &ruleState{win: level.NewRing[float64](r.Window)}
			if r.Agg == "p95" && r.Metric != metricLifetime {
				st.scratch = make([]float64, r.Window)
			}
			e.states[sk] = st
			e.order = append(e.order, sk)
		}
		sample := 0.0
		if r.Metric == metricLifetime {
			sample = p.HotJoules
		} else {
			sample = metrics[r.Metric](p)
		}
		st.win.Push(sample)
		st.rounds++

		v := e.reduce(e.ops[i].agg, st)
		st.value = v
		lvl := r.level(e.ops[i].cmp, v)
		if prev, changed := st.standing.Set(lvl, p.Round); changed {
			ev := Event{
				Rule: r.Name, Key: key, Round: p.Round,
				Level: lvl, Prev: prev, Value: sanitize(v),
			}
			if lvl > OK {
				ev.Threshold = r.threshold(lvl)
			}
			ev.Message = message(r, ev)
			e.log.Append(ev)
		}
	}
}

func (e *refEngine) Level(rule, key string) Level {
	for i, r := range e.rules {
		if r.Name == rule {
			if st, ok := e.states[refKey{i, key}]; ok {
				return st.standing.Level
			}
			break
		}
	}
	return OK
}

func (e *refEngine) States() []State {
	order := append([]refKey(nil), e.order...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].rule != order[j].rule {
			return order[i].rule < order[j].rule
		}
		return order[i].key < order[j].key
	})
	out := make([]State, 0, len(order))
	for _, sk := range order {
		st := e.states[sk]
		out = append(out, State{
			Rule: e.rules[sk.rule].Name, Key: sk.key,
			Level: st.standing.Level, Since: st.standing.Since, Value: sanitize(st.value), Rounds: st.rounds,
		})
	}
	return out
}

// randomRules draws a valid rule set over every metric (lifetime
// included), aggregator and comparator, with names drawn from a small
// pool so duplicates are common.
func randomRules(rng *rand.Rand) []Rule {
	var metricNames []string
	for m := range metrics {
		metricNames = append(metricNames, m)
	}
	sort.Strings(metricNames)
	metricNames = append(metricNames, metricLifetime)
	aggNames := []string{"last", "mean", "max", "min", "sum", "p95", "rate", "nz"}
	cmpNames := []string{">", ">=", "<", "<="}
	names := []string{"a", "b", "storm", "orphan"}

	rules := make([]Rule, 1+rng.Intn(6))
	for i := range rules {
		r := Rule{
			Name:   names[rng.Intn(len(names))],
			Metric: metricNames[rng.Intn(len(metricNames))],
			Agg:    aggNames[rng.Intn(len(aggNames))],
			Window: 1 + rng.Intn(6),
			Cmp:    cmpNames[rng.Intn(len(cmpNames))],
			Warn:   float64(rng.Intn(5)) - 0.5,
		}
		if r.Metric == metricLifetime {
			r.Warn = float64(rng.Intn(200))
		}
		if rng.Intn(2) == 0 {
			r.HasCrit, r.Crit = true, r.Warn+float64(rng.Intn(3))
			if r.Cmp == "<" || r.Cmp == "<=" {
				r.Crit = r.Warn - float64(rng.Intn(3))
			}
		}
		rules[i] = r
	}
	return rules
}

// randomPoint fills every numeric Point column with a small value, zero
// often enough for the nz aggregator to count, and HotJoules as a
// watermark rising from hot.
func randomPoint(rng *rand.Rand, round int, hot float64) series.Point {
	var p series.Point
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(float64(rng.Intn(5)) * rng.Float64())
		default:
			f.SetInt(int64(rng.Intn(5)))
		}
	}
	p.Round, p.Span, p.HotJoules = round, 1, hot
	return p
}

// TestObserveMatchesReference: over random rule sets (every aggregator,
// the lifetime metric, duplicate rule names) and randomly interleaved
// keys, run boundaries and points, the engine's per-key state slices
// give the same log, snapshot and per rule × key levels, and
// ObserveLevels the same levels by rule index, as the map of rule × key
// states they replaced.
func TestObserveMatchesReference(t *testing.T) {
	keys := []string{"IQ", "HBC", "ADAPT", "0.1/IQ", "never"}
	transitions := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := randomRules(rng)
		got, err := NewEngine(rules...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := newRefEngine(rules...)
		budget := []float64{0, 5, 100}[rng.Intn(3)]
		got.SetBudget(budget)
		want.SetBudget(budget)

		var levels []Level
		rounds := map[string]int{}
		hot := map[string]float64{}
		for op := 0; op < 200; op++ {
			key := keys[rng.Intn(len(keys)-1)]
			if rng.Intn(10) == 0 {
				got.StartRun(key)
				want.StartRun(key)
				continue
			}
			hot[key] += rng.Float64()
			p := randomPoint(rng, rounds[key], hot[key])
			rounds[key]++
			want.Observe(key, p)
			if rng.Intn(2) == 0 {
				got.Observe(key, p)
				continue
			}
			levels = got.ObserveLevels(key, p, levels[:0])
			for i, lvl := range levels {
				if w := want.states[refKey{i, key}].standing.Level; lvl != w || len(levels) != len(rules) {
					t.Fatalf("seed %d: ObserveLevels(%s) = %v, reference level %v for rule %d", seed, key, levels, w, i)
				}
			}
		}

		g, w := got.Log(), want.Log()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d, rules %v: log\n%v\nreference\n%v", seed, rules, g, w)
		}
		transitions += len(w)
		if g, w := got.States(), want.States(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d, rules %v: states\n%+v\nreference\n%+v", seed, rules, g, w)
		}
		for _, r := range rules {
			for _, key := range keys {
				if g, w := got.Level(r.Name, key), want.Level(r.Name, key); g != w {
					t.Fatalf("seed %d: Level(%s, %s) = %v, reference %v", seed, r.Name, key, g, w)
				}
			}
		}
	}
	// The comparison means little if the streams never move a level.
	if transitions < 1000 {
		t.Fatalf("only %d transitions over every seed", transitions)
	}
	t.Logf("%d transitions", transitions)
}
