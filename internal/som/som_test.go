package som

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Train(nil, Config{}, rng); err == nil {
		t.Error("empty features accepted")
	}
	if _, err := Train([]int{1}, Config{GridSide: 1}, rng); err == nil {
		t.Error("1x1 grid accepted")
	}
	if _, err := Train([]int{1}, Config{LearnRate: 2}, rng); err == nil {
		t.Error("learning rate > 1 accepted")
	}
}

func TestTrainConstantFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := Train([]int{7, 7, 7, 7}, Config{GridSide: 4, Epochs: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pos := m.place([]int{7, 7, 7, 7}, 100, rng)
	for _, p := range pos {
		if p.X < 0 || p.X >= 100 || p.Y < 0 || p.Y >= 100 {
			t.Fatalf("position out of region: %v", p)
		}
	}
}

func TestPlaceBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	features := make([]int, 500)
	for i := range features {
		features[i] = rng.Intn(1000)
	}
	pos, err := PlaceByFirstValue(features, 200, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 500 {
		t.Fatalf("got %d positions", len(pos))
	}
	for _, p := range pos {
		if p.X < 0 || p.X >= 200 || p.Y < 0 || p.Y >= 200 {
			t.Fatalf("position out of region: %v", p)
		}
	}
}

// TestTopologyPreservation is the core SOM property: nodes with similar
// feature values must end up closer in space, on average, than nodes
// with dissimilar values.
func TestTopologyPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 400
	features := make([]int, n)
	for i := range features {
		features[i] = rng.Intn(10000)
	}
	pos, err := PlaceByFirstValue(features, 200, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var similarDist, dissimilarDist float64
	var ns, nd int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j += 7 { // sample pairs
			fd := math.Abs(float64(features[i] - features[j]))
			sd := pos[i].Dist(pos[j])
			if fd < 500 {
				similarDist += sd
				ns++
			} else if fd > 5000 {
				dissimilarDist += sd
				nd++
			}
		}
	}
	if ns == 0 || nd == 0 {
		t.Skip("degenerate sampling")
	}
	simAvg, disAvg := similarDist/float64(ns), dissimilarDist/float64(nd)
	if simAvg >= disAvg {
		t.Errorf("no spatial correlation: similar pairs %.1fm apart, dissimilar %.1fm", simAvg, disAvg)
	}
}

func TestMapWeightsOrdered(t *testing.T) {
	// After training on a uniform spread, the weight surface should be
	// smooth: neighboring neurons differ far less than opposite corners.
	rng := rand.New(rand.NewSource(5))
	features := make([]int, 300)
	for i := range features {
		features[i] = rng.Intn(1000)
	}
	m, err := Train(features, Config{GridSide: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var neighborDiff float64
	count := 0
	for y := 0; y < m.side; y++ {
		for x := 0; x+1 < m.side; x++ {
			neighborDiff += math.Abs(m.weight(x, y) - m.weight(x+1, y))
			count++
		}
	}
	cornerDiff := math.Abs(m.weight(0, 0) - m.weight(m.side-1, m.side-1))
	if neighborDiff/float64(count) >= cornerDiff {
		t.Errorf("weight surface not smooth: neighbor %.1f vs corner span %.1f",
			neighborDiff/float64(count), cornerDiff)
	}
}

func TestTrainDeterministic(t *testing.T) {
	features := []int{5, 100, 800, 450, 30, 999, 7, 620}
	a, err := Train(features, Config{GridSide: 4}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(features, Config{GridSide: 4}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if a.weight(x, y) != b.weight(x, y) {
				t.Fatal("training not deterministic")
			}
		}
	}
}

// weight returns the neuron weight at lattice coordinates (x, y).
func (m *Map) weight(x, y int) float64 { return m.weights[y*m.side+x] }
