package sim

import "testing"

// carrierPayload carries vals raw measurements in bits bits.
type carrierPayload struct{ bits, vals int }

func (p *carrierPayload) Bits() int       { return p.bits }
func (p *carrierPayload) ValueCount() int { return p.vals }

// TestPerPhaseMatchesHandTally switches the traffic label between
// operations — including the unlabeled "" and a label outside the
// phase table, both of which book as "other", and a label that sends
// nothing — on lossy, faulty runtimes under ARQ, and requires
// Stats().PerPhase to equal a tally that attributes each operation's
// change in the global counters to its label by hand.
func TestPerPhaseMatchesHandTally(t *testing.T) {
	type op struct {
		label string
		send  func(rt *Runtime)
	}
	convergecast := func(rt *Runtime) {
		rt.Convergecast(rt.top.PostOrder, func(node int, children []Payload) Payload {
			return &carrierPayload{bits: 16 + 8*len(children), vals: 1 + len(children)}
		})
	}
	broadcast := func(rt *Runtime) { rt.Broadcast(&carrierPayload{bits: 40, vals: 2}) }
	ops := []op{
		{PhaseValidation, convergecast},
		{"", broadcast},
		{PhaseOther, convergecast},
		{PhaseRefinement, nil},
		{PhaseValidation, broadcast},
		{"custom", convergecast},
		{"", convergecast},
		{PhaseFilter, broadcast},
	}
	acks := 0
	for seed := int64(1); seed <= 6; seed++ {
		faults := ""
		if seed%2 == 1 {
			faults = "crash@2-5:n3; burst(p=0.4,len=2):n7"
		}
		rt := randomRuntime(t, seed, seed%3 == 0, faults, nil)
		var want [len(phaseTable)]PhaseStats
		// tally runs send under the current label and books the change
		// in the global counters to that label.
		tally := func(send func(rt *Runtime)) {
			before := rt.Stats()
			if send != nil {
				send(rt)
			}
			after := rt.Stats()
			if after.FramesSent == before.FramesSent {
				return
			}
			ps := &want[rt.phase]
			ps.Payloads += after.PayloadsSent - before.PayloadsSent
			ps.Frames += after.FramesSent - before.FramesSent
			ps.Bits += after.BitsSent - before.BitsSent
			ps.Values += after.ValuesSent - before.ValuesSent
		}
		for round := 0; round < 8; round++ {
			for _, o := range ops {
				rt.SetPhase(o.label)
				tally(o.send)
			}
			if got := rt.Stats().PerPhase; got != want {
				t.Fatalf("seed %d round %d: PerPhase\n got  %v\n want %v", seed, round, got, want)
			}
			// Tree repair after a crash sends join handshakes under the
			// label in force.
			tally((*Runtime).AdvanceRound)
		}
		if st := rt.Stats(); st.Phase(PhaseRefinement) != (PhaseStats{}) {
			t.Errorf("seed %d: a phase that sent nothing has a nonzero tally %+v", seed, st.Phase(PhaseRefinement))
		}
		acks += rt.Stats().AckFrames
	}
	if acks == 0 {
		t.Error("fixture too tame: no ARQ control traffic")
	}
}
