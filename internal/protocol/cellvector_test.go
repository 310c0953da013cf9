package protocol

import (
	"math/bits"
	"math/rand"
	"testing"

	"wsnq/internal/msg"
)

// cellModel drives a few live histogram payloads and a map reference
// per payload in lockstep — the map-with-delete-on-zero representation
// LCLL's validation deltas used — and checks every payload against its
// reference after each operation.
type cellModel struct {
	t     testing.TB
	sizes msg.Sizes
	hs    []*Histogram
	refs  []map[int]int
}

func newCellModel(t testing.TB, n int) *cellModel {
	m := &cellModel{t: t, sizes: msg.DefaultSizes()}
	for i := 0; i < n; i++ {
		h := &Histogram{sizes: m.sizes}
		h.Reset(16 + 24*i)
		m.hs = append(m.hs, h)
		m.refs = append(m.refs, map[int]int{})
	}
	return m
}

// step applies one operation decoded from four bytes: an add (often to
// one of a few low cells, so deltas cancel and cells are re-touched
// after cancelling), a consuming merge, a release and re-get at a new
// size, or a root drain.
func (m *cellModel) step(op, a, b, c byte) {
	i := int(a) % len(m.hs)
	h, ref := m.hs[i], m.refs[i]
	switch op % 4 {
	case 0:
		cell := int(b) % len(h.counts)
		if b < 160 {
			cell = int(b) % min(4, len(h.counts))
		}
		m.add(h, ref, cell, int(c%5)-2)
	case 1:
		j := int(b) % len(m.hs)
		if j == i || len(m.hs[j].counts) > len(h.counts) {
			m.add(h, ref, int(c)%len(h.counts), int(b%3)-1)
			return
		}
		h.Merge(&m.hs[j].CellVector)
		for cell, d := range m.refs[j] {
			addRef(ref, cell, d)
		}
		clear(m.refs[j])
	case 2:
		h.Clear()
		clear(ref)
		m.checkEmpty(i)
		h.Reset(1 + int(b)%200)
	case 3:
		applied := map[int]int{}
		h.Drain(func(cell, count int) {
			if _, dup := applied[cell]; dup {
				m.t.Fatalf("drain applied cell %d twice", cell)
			}
			applied[cell] = count
		})
		if len(applied) != len(ref) {
			m.t.Fatalf("drain applied %d cells, reference holds %d", len(applied), len(ref))
		}
		for cell, want := range ref {
			if applied[cell] != want {
				m.t.Fatalf("drain applied %d to cell %d, reference %d", applied[cell], cell, want)
			}
		}
		clear(ref)
		m.checkEmpty(i)
	}
	for k := range m.hs {
		m.check(k)
	}
}

func (m *cellModel) add(h *Histogram, ref map[int]int, cell, d int) {
	h.Add(cell, d)
	addRef(ref, cell, d)
}

func addRef(ref map[int]int, cell, d int) {
	ref[cell] += d
	if ref[cell] == 0 {
		delete(ref, cell)
	}
}

// check asserts payload k against its reference: equal contents, both
// bit formulas, and the sparse-set structure (touched holds each
// marked cell once and covers every nonzero cell; nothing is set
// beyond the live cells).
func (m *cellModel) check(k int) {
	t, h, ref := m.t, m.hs[k], m.refs[k]
	v := &h.CellVector
	nonEmpty := 0
	for cell := 0; cell < len(v.counts); cell++ {
		if got := int(v.counts[cell]); got != ref[cell] {
			t.Fatalf("payload %d cell %d = %d, reference %d", k, cell, got, ref[cell])
		}
		if v.counts[cell] != 0 {
			nonEmpty++
		}
	}
	if got, want := h.Bits(), m.sizes.CompressedHistogramBits(nonEmpty, len(v.counts)); got != want {
		t.Fatalf("payload %d histogram Bits = %d, dense scan gives %d", k, got, want)
	}
	if got, want := v.Nonzero()*2*m.sizes.CounterBits, len(ref)*2*m.sizes.CounterBits; got != want {
		t.Fatalf("payload %d delta Bits = %d, map length gives %d", k, got, want)
	}
	inTouched := map[int32]bool{}
	for _, cell := range v.touched {
		if inTouched[cell] {
			t.Fatalf("payload %d lists cell %d twice in touched", k, cell)
		}
		inTouched[cell] = true
		if v.marks[cell>>6]&(1<<(cell&63)) == 0 {
			t.Fatalf("payload %d touched cell %d is unmarked", k, cell)
		}
	}
	marked := 0
	for _, w := range v.marks {
		marked += bits.OnesCount64(w)
	}
	if marked != len(v.touched) {
		t.Fatalf("payload %d marks %d cells, touched lists %d", k, marked, len(v.touched))
	}
	for cell, c := range v.counts[:cap(v.counts)] {
		if c != 0 && !inTouched[int32(cell)] {
			t.Fatalf("payload %d cell %d holds %d outside touched", k, cell, c)
		}
	}
}

// checkEmpty asserts payload k is all-zero across its whole backing
// storage, as a consumed or released vector must be.
func (m *cellModel) checkEmpty(k int) {
	v := &m.hs[k].CellVector
	if v.Nonzero() != 0 || len(v.touched) != 0 {
		m.t.Fatalf("payload %d not empty: %d nonzero, %d touched", k, v.Nonzero(), len(v.touched))
	}
	for cell, c := range v.counts[:cap(v.counts)] {
		if c != 0 {
			m.t.Fatalf("payload %d cell %d holds %d after emptying", k, cell, c)
		}
	}
	for w, word := range v.marks {
		if word != 0 {
			m.t.Fatalf("payload %d mark word %d = %#x after emptying", k, w, word)
		}
	}
}

// TestCellVectorAgainstMap runs random add / merge / release / drain
// sequences against the map reference.
func TestCellVectorAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 200; seq++ {
		m := newCellModel(t, 2+seq%3)
		for op := 0; op < 300; op++ {
			m.step(byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
	}
}

// TestCellVectorMergeConsumes pins the consume semantics on a fixed
// case: deltas that cancel, a cell re-touched after cancelling, and a
// merged child left all-zero.
func TestCellVectorMergeConsumes(t *testing.T) {
	m := newCellModel(t, 2)
	m.step(0, 0, 1, 3) // payload 0: cell 1 += 1
	m.step(0, 0, 1, 1) // cell 1 -= 1: cancels
	m.step(0, 0, 1, 4) // cell 1 += 2: re-touched
	m.step(0, 1, 1, 0) // payload 1: cell 1 -= 2
	m.step(1, 1, 0, 0) // payload 1 absorbs payload 0: cell 1 cancels
	m.checkEmpty(0)
	if got := m.hs[1].Nonzero(); got != 0 {
		t.Fatalf("cancelled merge left %d nonzero cells", got)
	}
}

// FuzzCellVector runs byte-driven operation sequences against the map
// reference.
func FuzzCellVector(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 0, 0, 1, 1, 0, 0, 1, 4, 3, 0, 0, 0})
	f.Add([]byte{0, 1, 200, 4, 1, 1, 0, 0, 2, 1, 130, 0, 3, 1, 0, 0})
	f.Add([]byte{2, 0, 255, 0, 0, 0, 170, 0, 1, 2, 0, 4, 3, 2, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newCellModel(t, 3)
		for len(ops) >= 4 {
			m.step(ops[0], ops[1], ops[2], ops[3])
			ops = ops[4:]
		}
	})
}
