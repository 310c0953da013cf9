package alert

import (
	"reflect"
	"strings"
	"testing"
)

func TestParsePresets(t *testing.T) {
	for _, want := range Presets() {
		got, err := parseRule(want.Name)
		if err != nil {
			t.Fatalf("preset %s: %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("preset %s parsed to %+v, want %+v", want.Name, got, want)
		}
	}
}

func TestParseRenamedPreset(t *testing.T) {
	got, err := parseRule("hbc-storm = storm")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "hbc-storm" || got.Metric != "refines" || got.Agg != "max" {
		t.Errorf("renamed preset = %+v", got)
	}
}

func TestParseRuleForms(t *testing.T) {
	cases := []struct {
		in   string
		want Rule
	}{
		// Bare metric: last(1), rule named after the metric.
		{"frames>100",
			Rule{Name: "frames", Metric: "frames", Agg: "last", Window: 1, Cmp: ">", Warn: 100}},
		// Full form with crit and a name.
		{"hot=joules:mean(16)>=2e-4,5e-4",
			Rule{Name: "hot", Metric: "joules", Agg: "mean", Window: 16, Cmp: ">=", Warn: 2e-4, Crit: 5e-4, HasCrit: true}},
		// <= comparator.
		{"idle=messages:min(8)<=0",
			Rule{Name: "idle", Metric: "messages", Agg: "min", Window: 8, Cmp: "<=", Warn: 0}},
		// Whitespace everywhere.
		{"  slow =  frames : p95( 32 ) > 50 , 80 ",
			Rule{Name: "slow", Metric: "frames", Agg: "p95", Window: 32, Cmp: ">", Warn: 50, Crit: 80, HasCrit: true}},
		// Bare lifetime auto-upgrades to the rate(32) drain window.
		{"lifetime<4000",
			Rule{Name: "lifetime", Metric: "lifetime", Agg: "rate", Window: 32, Cmp: "<", Warn: 4000}},
	}
	for _, c := range cases {
		got, err := parseRule(c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestParseRoundTrip checks String() renders back into the grammar.
func TestParseRoundTrip(t *testing.T) {
	rules := append(Presets(),
		Rule{Name: "hot", Metric: "joules", Agg: "mean", Window: 16, Cmp: ">=", Warn: 2e-4, Crit: 5e-4, HasCrit: true},
		Rule{Name: "frames", Metric: "frames", Agg: "last", Window: 1, Cmp: ">", Warn: 100},
	)
	for _, r := range rules {
		got, err := parseRule(r.String())
		if err != nil {
			t.Errorf("%s: %v", r.String(), err)
			continue
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("round trip %s = %+v, want %+v", r.String(), got, r)
		}
	}
}

func TestParseRules(t *testing.T) {
	rs, err := ParseRules(" storm ;; excursion; hot=frames>9 ; ")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rs))
	}
	if rs[0].Name != "storm" || rs[1].Name != "excursion" || rs[2].Name != "hot" {
		t.Errorf("rule names = %s, %s, %s", rs[0].Name, rs[1].Name, rs[2].Name)
	}
	if rs, err := ParseRules("   "); err != nil || len(rs) != 0 {
		t.Errorf("blank spec = %v rules, err %v; want none, nil", rs, err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in      string
		errPart string
	}{
		{"", "neither a preset"},
		{"stormy", "neither a preset"},
		{"=storm", "empty rule name"},
		{"watts>5", "unknown metric"},
		{"frames:median(8)>5", "unknown aggregator"},
		{"frames:mean(zero)>5", "bad window"},
		{"frames:mean(0)>5", "window 0 < 1"},
		{"frames:mean8)>5", "agg(window)"},
		{"frames>abc", "bad warn threshold"},
		{"frames>5,abc", "bad crit threshold"},
		{"frames>10,5", "less extreme"},
		{"joules:rate(4)<1e-6,2e-6", "less extreme"},
	}
	for _, c := range cases {
		_, err := parseRule(c.in)
		if err == nil {
			t.Errorf("%q: parsed without error", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%q: error %q does not mention %q", c.in, err, c.errPart)
		}
	}
	if _, err := ParseRules("storm; watts>5"); err == nil {
		t.Error("ParseRules accepted a list with a bad rule")
	}
}
