package data

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"wsnq/internal/wsn"
)

func TestTraceBasics(t *testing.T) {
	tr, err := NewTrace([][]int{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 2 || tr.Rounds() != 3 {
		t.Fatalf("shape = (%d,%d)", tr.Nodes(), tr.Rounds())
	}
	if tr.Value(1, 1) != 5 {
		t.Errorf("Value(1,1) = %d", tr.Value(1, 1))
	}
	// Wrapping beyond the series.
	if tr.Value(0, 3) != 1 || tr.Value(0, 4) != 2 {
		t.Error("trace does not wrap")
	}
	lo, hi := tr.Universe()
	if lo != 1 || hi != 6 {
		t.Errorf("universe = [%d,%d]", lo, hi)
	}
	if got := tr.FirstValues(); got[0] != 1 || got[1] != 4 {
		t.Errorf("FirstValues = %v", got)
	}
}

func TestTraceRejectsBadInput(t *testing.T) {
	if _, err := NewTrace(nil); err == nil {
		t.Error("nil series accepted")
	}
	if _, err := NewTrace([][]int{{}}); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := NewTrace([][]int{{1, 2}, {1}}); err == nil {
		t.Error("ragged series accepted")
	}
}

func TestTraceSetUniverse(t *testing.T) {
	tr, _ := NewTrace([][]int{{10, 20}})
	if err := tr.SetUniverse(0, 100); err != nil {
		t.Fatal(err)
	}
	lo, hi := tr.Universe()
	if lo != 0 || hi != 100 {
		t.Errorf("universe = [%d,%d]", lo, hi)
	}
	if err := tr.SetUniverse(15, 100); err == nil {
		t.Error("universe not covering data accepted")
	}
}

func TestTraceSkip(t *testing.T) {
	tr, _ := NewTrace([][]int{{0, 1, 2, 3, 4, 5, 6, 7}})
	sk, err := tr.Skip(3)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Rounds() != 3 {
		t.Fatalf("skipped rounds = %d", sk.Rounds())
	}
	for i, want := range []int{0, 3, 6} {
		if sk.Value(0, i) != want {
			t.Errorf("skip value[%d] = %d, want %d", i, sk.Value(0, i), want)
		}
	}
	if _, err := tr.Skip(0); err == nil {
		t.Error("skip 0 accepted")
	}
	same, _ := tr.Skip(1)
	if same != tr {
		t.Error("skip 1 should return the receiver")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr, _ := NewTrace([][]int{{1, -2, 3}, {7, 8, 9}})
	var buf bytes.Buffer
	if err := writeTracesCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTracesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		for r := 0; r < 3; r++ {
			if back.Value(n, r) != tr.Value(n, r) {
				t.Fatalf("round trip mismatch at (%d,%d)", n, r)
			}
		}
	}
}

func TestCSVComments(t *testing.T) {
	in := "# header\n1, 2,3\n\n4,5,6\n"
	tr, err := ReadTracesCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 2 || tr.Value(0, 1) != 2 {
		t.Errorf("parsed wrong: nodes=%d", tr.Nodes())
	}
	if _, err := ReadTracesCSV(strings.NewReader("1,x,3\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestNoiseFieldProperties(t *testing.T) {
	f, err := newNoiseField(42, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newNoiseField(1, 1); err == nil {
		t.Error("degenerate lattice accepted")
	}
	// In range, deterministic, and spatially correlated: nearby samples
	// differ much less than far samples on average.
	var near, far float64
	const steps = 200
	for i := 0; i < steps; i++ {
		u := float64(i) / steps
		v := 0.5
		a := f.At(u, v)
		if a < 0 || a >= 1 {
			t.Fatalf("field out of range: %v", a)
		}
		if a != f.At(u, v) {
			t.Fatal("field not deterministic")
		}
		near += math.Abs(a - f.At(u+0.001, v))
		far += math.Abs(a - f.At(math.Mod(u+0.47, 1), v))
	}
	if near >= far/4 {
		t.Errorf("no spatial correlation: near=%v far=%v", near/steps, far/steps)
	}
}

// uniformPlacement scatters n sensors uniformly in a side×side region,
// drawing X then Y per sensor.
func uniformPlacement(n int, side float64, rng *rand.Rand) []wsn.Point {
	pos := make([]wsn.Point, n)
	for i := range pos {
		pos[i] = wsn.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return pos
}

func newTestSynthetic(t *testing.T, cfg SyntheticConfig, n int) *Synthetic {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pos := uniformPlacement(n, 200, rng)
	s, err := NewSynthetic(cfg, pos, 200)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSyntheticInUniverse(t *testing.T) {
	s := newTestSynthetic(t, SyntheticConfig{Seed: 1, Period: 63, NoisePct: 50}, 100)
	lo, hi := s.Universe()
	for n := 0; n < s.Nodes(); n++ {
		for r := 0; r < 300; r++ {
			v := s.Value(n, r)
			if v < lo || v > hi {
				t.Fatalf("value %d outside universe [%d,%d]", v, lo, hi)
			}
			if v != s.Value(n, r) {
				t.Fatal("synthetic not deterministic")
			}
		}
	}
}

func median(vs []int) int {
	s := append([]int(nil), vs...)
	sort.Ints(s)
	return s[(len(s)-1)/2]
}

func collectMedians(s Source, rounds int) []int {
	out := make([]int, rounds)
	vs := make([]int, s.Nodes())
	for r := 0; r < rounds; r++ {
		for n := range vs {
			vs[n] = s.Value(n, r)
		}
		out[r] = median(vs)
	}
	return out
}

func TestSyntheticPeriodDrivesQuantileMotion(t *testing.T) {
	// Smaller period => larger average per-round median change.
	slow := newTestSynthetic(t, SyntheticConfig{Seed: 5, Period: 250}, 200)
	fast := newTestSynthetic(t, SyntheticConfig{Seed: 5, Period: 8}, 200)
	motion := func(s Source) float64 {
		ms := collectMedians(s, 100)
		d := 0.0
		for i := 1; i < len(ms); i++ {
			d += math.Abs(float64(ms[i] - ms[i-1]))
		}
		return d
	}
	if motion(fast) <= 3*motion(slow) {
		t.Errorf("period does not control quantile motion: fast=%v slow=%v", motion(fast), motion(slow))
	}
}

func TestSyntheticNoiseBarelyMovesMedian(t *testing.T) {
	// §5.2.3: noise moves individual measurements but largely cancels
	// out in the median.
	quiet := newTestSynthetic(t, SyntheticConfig{Seed: 9, Period: 250, NoisePct: 0}, 500)
	noisy := newTestSynthetic(t, SyntheticConfig{Seed: 9, Period: 250, NoisePct: 50}, 500)
	mq := collectMedians(quiet, 50)
	mn := collectMedians(noisy, 50)
	_, hi := quiet.Universe()
	for r := range mq {
		if d := math.Abs(float64(mq[r] - mn[r])); d > 0.02*float64(hi) {
			t.Fatalf("round %d: noise shifted median by %v", r, d)
		}
	}
	// But individual node values must differ a lot more.
	var dv float64
	for n := 0; n < 100; n++ {
		dv += math.Abs(float64(quiet.Value(n, 10) - noisy.Value(n, 10)))
	}
	if dv/100 < 100 {
		t.Errorf("noise has no effect on node values: mean |Δ| = %v", dv/100)
	}
}

func TestSyntheticValidation(t *testing.T) {
	pos := []wsn.Point{{X: 1, Y: 1}}
	if _, err := NewSynthetic(SyntheticConfig{Period: 0}, pos, 200); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewSynthetic(SyntheticConfig{Period: 10, NoisePct: 150}, pos, 200); err == nil {
		t.Error("noise > 100% accepted")
	}
	if _, err := NewSynthetic(SyntheticConfig{Period: 10}, nil, 200); err == nil {
		t.Error("no positions accepted")
	}
	if _, err := NewSynthetic(SyntheticConfig{Period: 10}, pos, 0); err == nil {
		t.Error("zero side accepted")
	}
}

func TestPressureTraceShape(t *testing.T) {
	tr, err := NewPressureTrace(PressureConfig{Nodes: 50, Rounds: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 50 || tr.Rounds() != 300 {
		t.Fatalf("shape = (%d,%d)", tr.Nodes(), tr.Rounds())
	}
	lo, hi := tr.Universe()
	if lo < PessimisticLoHPa || hi > PessimisticHiHPa {
		t.Fatalf("observed range [%d,%d] outside physical bounds", lo, hi)
	}
	if hi-lo < 5 {
		t.Fatalf("pressure range suspiciously narrow: [%d,%d]", lo, hi)
	}
	// Strong temporal correlation: consecutive medians move slowly.
	ms := collectMedians(tr, 200)
	big := 0
	for i := 1; i < len(ms); i++ {
		if math.Abs(float64(ms[i]-ms[i-1])) > 5 {
			big++
		}
	}
	if big > 10 {
		t.Errorf("%d/200 rounds with median jump > 5 hPa: too volatile", big)
	}
}

func TestPressureValidation(t *testing.T) {
	if _, err := NewPressureTrace(PressureConfig{Nodes: 0, Rounds: 10}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewPressureTrace(PressureConfig{Nodes: 10, Rounds: 0}); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestPressureSkipWeakensCorrelation(t *testing.T) {
	tr, err := NewPressureTrace(PressureConfig{Nodes: 100, Rounds: 2000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := tr.Skip(16)
	if err != nil {
		t.Fatal(err)
	}
	motion := func(s Source, rounds int) float64 {
		ms := collectMedians(s, rounds)
		d := 0.0
		for i := 1; i < len(ms); i++ {
			d += math.Abs(float64(ms[i] - ms[i-1]))
		}
		return d / float64(len(ms)-1)
	}
	if motion(sk, 100) <= motion(tr, 100) {
		t.Error("skipping samples should increase per-round quantile motion")
	}
}

func TestSyntheticSpreadConcentrates(t *testing.T) {
	wide := newTestSynthetic(t, SyntheticConfig{Seed: 13, Period: 250, SpreadFrac: 1}, 300)
	tight := newTestSynthetic(t, SyntheticConfig{Seed: 13, Period: 250, SpreadFrac: 0.05}, 300)
	span := func(s Source) int {
		lo, hi := s.Value(0, 0), s.Value(0, 0)
		for n := 0; n < s.Nodes(); n++ {
			v := s.Value(n, 0)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi - lo
	}
	if span(tight)*4 >= span(wide) {
		t.Errorf("spread 0.05 span %d not well below spread 1 span %d", span(tight), span(wide))
	}
	// Validation bounds.
	pos := []wsn.Point{{X: 1, Y: 1}}
	if _, err := NewSynthetic(SyntheticConfig{Period: 10, SpreadFrac: 2}, pos, 200); err == nil {
		t.Error("spread > 1 accepted")
	}
}

// writeTracesCSV writes the trace in the format ReadTracesCSV accepts.
func writeTracesCSV(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, s := range t.series {
		for j, v := range s {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(v)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestFillMatchesValue: a source's Fill writes exactly what Value
// returns for every node, over several synthetic configurations and a
// trace whose rounds wrap.
func TestFillMatchesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos := uniformPlacement(97, 200, rng)
	var sources []Source
	for _, cfg := range []SyntheticConfig{
		{Seed: 1, Period: 8, NoisePct: 0},
		{Seed: 2, Period: 25, NoisePct: 5},
		{Seed: 3, Period: 7, NoisePct: 100, AmplitudeFrac: 0.5, Universe: 1 << 10},
		{Seed: 4, Period: 1000, NoisePct: 12.5, SpreadFrac: 0.1, Lattice: 4},
	} {
		s, err := NewSynthetic(cfg, pos, 200)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, s)
	}
	tr, err := NewTrace([][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, tr)
	for i, src := range sources {
		dst := make([]int, src.Nodes())
		for _, round := range []int{0, 1, 2, 5, 13, 64, 999, 12345} {
			src.Fill(round, dst)
			for node, got := range dst {
				if want := src.Value(node, round); got != want {
					t.Fatalf("source %d round %d node %d: Fill %d, Value %d", i, round, node, got, want)
				}
			}
		}
	}
}
