package alert

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRules checks the rule grammar on arbitrary input: ParseRules
// never panics, and whatever it accepts renders through each rule's
// String into a spec that re-parses to the identical rules.
func FuzzParseRules(f *testing.F) {
	var all []string
	for _, r := range Presets() {
		f.Add(r.Name)
		f.Add(r.String())
		all = append(all, r.Name)
	}
	f.Add(strings.Join(all, "; "))
	f.Add(" storm ;; excursion; hot=frames>9 ; ")
	f.Add("hot=joules:mean(16)>=2e-4,5e-4")
	f.Add("lifetime<500")
	f.Add("x=storm; x=orphan")
	f.Add("frames: p95 ( 4 ) <= 3,1")
	f.Add("frames>NaN") // rejected: NaN never equals itself, so it cannot round-trip
	f.Add("frames>1,NaN")
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseRules(spec)
		if err != nil {
			return
		}
		texts := make([]string, len(rules))
		for i, r := range rules {
			if err := r.Validate(); err != nil {
				t.Fatalf("ParseRules(%q) returned invalid rule %+v: %v", spec, r, err)
			}
			texts[i] = r.String()
		}
		canon := strings.Join(texts, "; ")
		again, err := ParseRules(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(again, rules) {
			t.Fatalf("round trip of %q diverged:\n  first:  %+v\n  second: %+v", spec, rules, again)
		}
	})
}
