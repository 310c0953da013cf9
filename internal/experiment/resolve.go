package experiment

import (
	"fmt"

	"wsnq/internal/baseline"
	"wsnq/internal/core"
	"wsnq/internal/protocol"
)

// ResolveAlgorithm maps a public algorithm name to its constructor with
// default options. It is the single source of truth behind the public
// wsnq.Algorithm constants and the scenario DSL's algorithm line-up, so
// the two vocabularies cannot drift apart.
func ResolveAlgorithm(name string) (Factory, error) {
	switch name {
	case "TAG":
		return func() protocol.Algorithm { return baseline.NewTAG() }, nil
	case "POS":
		return func() protocol.Algorithm { return baseline.NewPOS(baseline.DefaultPOSOptions()) }, nil
	case "LCLL-H":
		return func() protocol.Algorithm { return baseline.NewLCLL(baseline.DefaultLCLLOptions(false)) }, nil
	case "LCLL-S":
		return func() protocol.Algorithm { return baseline.NewLCLL(baseline.DefaultLCLLOptions(true)) }, nil
	case "HBC":
		return func() protocol.Algorithm { return core.NewHBC(core.DefaultHBCOptions()) }, nil
	case "HBC-NB":
		return func() protocol.Algorithm {
			opts := core.DefaultHBCOptions()
			opts.NoThresholdBroadcast = true
			opts.DirectRetrieval = false
			return core.NewHBC(opts)
		}, nil
	case "IQ":
		return func() protocol.Algorithm { return core.NewIQ(core.DefaultIQOptions()) }, nil
	case "ADAPT":
		return func() protocol.Algorithm { return core.NewAdaptive(core.DefaultAdaptiveOptions()) }, nil
	default:
		return nil, fmt.Errorf("experiment: unknown algorithm %q (want one of TAG, POS, LCLL-H, LCLL-S, HBC, HBC-NB, IQ, ADAPT)", name)
	}
}
