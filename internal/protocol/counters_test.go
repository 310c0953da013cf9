package protocol

import (
	"testing"
	"testing/quick"

	"wsnq/internal/msg"
)

// genCounters builds a Counters from compact random fields.
func genCounters(raw [7]uint8, mode HintMode) *Counters {
	c := &Counters{mode: mode, sizes: msg.DefaultSizes()}
	c.OutOfL = int(raw[0]) % 8
	c.IntoL = int(raw[1]) % 8
	c.OutOfG = int(raw[2]) % 8
	c.IntoG = int(raw[3]) % 8
	if raw[4]%2 == 0 {
		c.HintLo, c.HasLo = int(raw[5]), true
	}
	if raw[4]%3 == 0 {
		c.HintHi, c.HasHi = int(raw[6])+100, true
	}
	if raw[4]%5 == 0 {
		c.Attached = []int{int(raw[5]), int(raw[6])}
	}
	return c
}

func countersEqual(a, b *Counters) bool {
	if a.OutOfL != b.OutOfL || a.IntoL != b.IntoL || a.OutOfG != b.OutOfG || a.IntoG != b.IntoG {
		return false
	}
	if a.HasLo != b.HasLo || a.HasHi != b.HasHi {
		return false
	}
	if a.HasLo && a.HintLo != b.HintLo {
		return false
	}
	if a.HasHi && a.HintHi != b.HintHi {
		return false
	}
	if len(a.Attached) != len(b.Attached) {
		return false
	}
	seen := map[int]int{}
	for _, v := range a.Attached {
		seen[v]++
	}
	for _, v := range b.Attached {
		seen[v]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}

// TestCountersMergeCommutes: in-network aggregation must not depend on
// the order children report in.
func TestCountersMergeCommutes(t *testing.T) {
	f := func(ra, rb [7]uint8) bool {
		ab := genCounters(ra, HintTwoValues)
		ab.merge(genCounters(rb, HintTwoValues))
		ba := genCounters(rb, HintTwoValues)
		ba.merge(genCounters(ra, HintTwoValues))
		return countersEqual(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCountersMergeAssociates: aggregation over any tree shape yields
// the same root view.
func TestCountersMergeAssociates(t *testing.T) {
	f := func(ra, rb, rc [7]uint8) bool {
		// (a ⊔ b) ⊔ c
		left := genCounters(ra, HintTwoValues)
		left.merge(genCounters(rb, HintTwoValues))
		left.merge(genCounters(rc, HintTwoValues))
		// a ⊔ (b ⊔ c)
		right := genCounters(rb, HintTwoValues)
		right.merge(genCounters(rc, HintTwoValues))
		a := genCounters(ra, HintTwoValues)
		a.merge(right)
		return countersEqual(left, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCountersBitsMonotone: attaching values grows the payload by
// exactly one measurement each.
func TestCountersBitsMonotone(t *testing.T) {
	s := msg.DefaultSizes()
	c := &Counters{mode: HintMaxDistance, sizes: s}
	base := c.Bits()
	c.Attached = append(c.Attached, 5)
	if c.Bits() != base+s.ValueBits {
		t.Errorf("one attached value grew bits by %d, want %d", c.Bits()-base, s.ValueBits)
	}
	if c.ValueCount() != 1 {
		t.Errorf("ValueCount = %d", c.ValueCount())
	}
}

// TestHintModeBits covers the encoding widths.
func TestHintModeBits(t *testing.T) {
	if HintNone.Bits(16) != 0 {
		t.Error("HintNone width")
	}
	if HintTwoValues.Bits(16) != 32 {
		t.Error("HintTwoValues width")
	}
	if HintMaxDistance.Bits(16) != 16 {
		t.Error("HintMaxDistance width")
	}
}
