package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wsnq/internal/trace"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	p := DefaultParams()
	p.Alpha = 0
	if p.Validate() == nil {
		t.Error("zero alpha accepted")
	}
	p = DefaultParams()
	p.InitialBudget = -1
	if p.Validate() == nil {
		t.Error("negative budget accepted")
	}
	p = DefaultParams()
	p.P = 9
	if p.Validate() == nil {
		t.Error("absurd path-loss exponent accepted")
	}
}

func TestSendRecvCost(t *testing.T) {
	p := DefaultParams()
	// 1000 bits at 35 m: (50e-9 + 10e-12*35²)·1000 = 50µJ + 12.25µJ.
	got := p.SendCost(1000, 35)
	want := (50e-9 + 10e-12*35*35) * 1000
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("SendCost = %v, want %v", got, want)
	}
	if math.Abs(p.RecvCost(1000)-50e-6) > 1e-15 {
		t.Errorf("RecvCost = %v", p.RecvCost(1000))
	}
	if p.SendCost(0, 35) != 0 || p.RecvCost(-1) != 0 {
		t.Error("zero/negative bits must cost nothing")
	}
}

func TestSendCostMonotoneInRange(t *testing.T) {
	p := DefaultParams()
	prev := 0.0
	for _, rho := range []float64{15, 35, 60, 85} {
		c := p.SendCost(1000, rho)
		if c <= prev {
			t.Fatalf("SendCost not increasing at rho=%v", rho)
		}
		prev = c
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger(3, DefaultParams())
	l.ChargeSend(0, 1000, 35)
	l.ChargeRecv(1, 1000)
	if l.Spent(2) != 0 {
		t.Error("idle node charged")
	}
	wantTotal := DefaultParams().SendCost(1000, 35) + DefaultParams().RecvCost(1000)
	if math.Abs(l.TotalSpent()-wantTotal) > 1e-18 {
		t.Errorf("TotalSpent = %v, want %v", l.TotalSpent(), wantTotal)
	}
	node, joules := l.MaxSpent()
	if node != 0 || joules != l.Spent(0) {
		t.Errorf("MaxSpent = (%d, %v)", node, joules)
	}
}

func TestLedgerRootIsFree(t *testing.T) {
	l := NewLedger(2, DefaultParams())
	l.ChargeSend(-1, 1e6, 35)
	l.ChargeRecv(-1, 1e6)
	if l.TotalSpent() != 0 {
		t.Error("root charges must be ignored")
	}
}

func TestExhaustedAndReset(t *testing.T) {
	p := DefaultParams()
	p.InitialBudget = 1e-6
	l := NewLedger(1, p)
	if l.Exhausted() {
		t.Error("fresh ledger exhausted")
	}
	l.ChargeRecv(0, 100) // 5 µJ > 1 µJ budget
	if !l.Exhausted() {
		t.Error("over-budget node not detected")
	}
	l.Reset()
	if l.Exhausted() || l.TotalSpent() != 0 {
		t.Error("Reset did not clear state")
	}
}

// TestLedgerConservation: the sum of individual charges always equals
// the total, for arbitrary charge sequences.
func TestLedgerConservation(t *testing.T) {
	f := func(charges []uint16) bool {
		l := NewLedger(4, DefaultParams())
		want := 0.0
		for i, c := range charges {
			bits := int(c)
			node := i % 4
			if i%2 == 0 {
				l.ChargeSend(node, bits, 35)
				want += DefaultParams().SendCost(bits, 35)
			} else {
				l.ChargeRecv(node, bits)
				want += DefaultParams().RecvCost(bits)
			}
		}
		return math.Abs(l.TotalSpent()-want) <= 1e-12*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// debits collects the ledger's energy events.
type debits []trace.Event

func (d *debits) Collect(e trace.Event) { *d = append(*d, e) }

// TestChargeSendMatchesSendCost: the ledger's memoized per-bit cost
// charges exactly Params.SendCost, bit for bit, across runs of the
// nominal range, fresh link lengths (distance charging), repeats after
// other ranges, ρ = 0 and non-positive bit counts.
func TestChargeSendMatchesSendCost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, pathLoss := range []float64{2, 3, 2.5} {
		p := DefaultParams()
		p.P = pathLoss
		l := NewLedger(8, p)
		var got debits
		l.SetTrace(&got, func() (int, string) { return 0, "" })
		want := make([]float64, 8)
		var charges []float64
		for i := 0; i < 4000; i++ {
			var rho float64
			switch k := rng.Intn(10); {
			case k < 5:
				rho = 35 // the nominal range
			case k < 6:
				rho = 0
			case k < 7:
				rho = float64(rng.Intn(3)) * 17.5 // repeats after other ranges
			default:
				rho = rng.Float64() * 35 // a link length
			}
			bits := rng.Intn(2000) - 100
			node := rng.Intn(8)
			l.ChargeSend(node, bits, rho)
			c := p.SendCost(bits, rho)
			want[node] += c
			charges = append(charges, c)
		}
		if len(got) != len(charges) {
			t.Fatalf("p=%v: %d debit events for %d charges", pathLoss, len(got), len(charges))
		}
		for i, e := range got {
			if math.Float64bits(e.Joules) != math.Float64bits(charges[i]) {
				t.Fatalf("p=%v charge %d: %v J, SendCost %v J", pathLoss, i, e.Joules, charges[i])
			}
		}
		for node, w := range want {
			if math.Float64bits(l.Spent(node)) != math.Float64bits(w) {
				t.Errorf("p=%v node %d: spent %v J, want %v J", pathLoss, node, l.Spent(node), w)
			}
		}
	}
}
