package slo

import (
	"reflect"
	"testing"
)

// FuzzParseSpecs checks the spec grammar on arbitrary input: ParseSpecs
// never panics, and whatever it accepts renders through each spec's
// String into a list that re-parses to the identical specs.
func FuzzParseSpecs(f *testing.F) {
	for _, signal := range []string{SignalRank, SignalFresh, SignalLatency} {
		sp, err := defaultSpec(signal)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(signal)
		f.Add(sp.String())
	}
	f.Add("rank; fresh; latency")
	f.Add("rank epsilon=0.02 objective=0.999; latency ms=25")
	f.Add("fresh name=cov stale=3 window=64 fast=4 slow=16;")
	f.Add("rank name=a; rank name=a")
	f.Add("rank crit=NaN") // rejected: NaN never equals itself, so it cannot round-trip
	f.Fuzz(func(t *testing.T, text string) {
		specs, err := ParseSpecs(text)
		if err != nil {
			return
		}
		for _, sp := range specs {
			if err := sp.Validate(); err != nil {
				t.Fatalf("ParseSpecs(%q) returned invalid spec %+v: %v", text, sp, err)
			}
		}
		canon := FormatSpecs(specs)
		again, err := ParseSpecs(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, text, err)
		}
		if !reflect.DeepEqual(again, specs) {
			t.Fatalf("round trip of %q diverged:\n  first:  %+v\n  second: %+v", text, specs, again)
		}
	})
}
