// Package som implements the small self-organizing map the paper uses
// (§5.1.3, following [13]) to assign spatial positions to real-dataset
// nodes: one-dimensional feature vectors — each node's first
// measurement — are mapped onto a two-dimensional neuron lattice so
// that nodes with similar values end up spatially close, recreating the
// spatial correlation the algorithms encounter in a real deployment.
package som

import (
	"fmt"
	"math"
	"math/rand"

	"wsnq/internal/wsn"
)

// Config parameterizes the map and its training schedule.
type Config struct {
	GridSide   int     // neurons per lattice side (default 16)
	Epochs     int     // passes over the training set (default 20)
	LearnRate  float64 // initial learning rate (default 0.5)
	InitRadius float64 // initial neighborhood radius in lattice units (default GridSide/2)
}

func (c *Config) applyDefaults() {
	if c.GridSide == 0 {
		c.GridSide = 16
	}
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.LearnRate == 0 {
		c.LearnRate = 0.5
	}
	if c.InitRadius == 0 {
		c.InitRadius = float64(c.GridSide) / 2
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c.applyDefaults()
	if c.GridSide < 2 {
		return fmt.Errorf("som: grid side must be >= 2, got %d", c.GridSide)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("som: at least one epoch required, got %d", c.Epochs)
	}
	if c.LearnRate <= 0 || c.LearnRate > 1 {
		return fmt.Errorf("som: learning rate %v out of (0,1]", c.LearnRate)
	}
	return nil
}

// Map is a trained lattice of scalar-weight neurons.
type Map struct {
	side    int
	weights []float64 // row-major side×side scalar weights
}

// Train fits a map to the scalar features, deterministically for a
// given rng.
func Train(features []int, cfg Config, rng *rand.Rand) (*Map, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(features) == 0 {
		return nil, fmt.Errorf("som: no training features")
	}
	lo, hi := features[0], features[0]
	for _, f := range features {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	m := &Map{side: cfg.GridSide, weights: make([]float64, cfg.GridSide*cfg.GridSide)}
	// Initialize with a smooth diagonal gradient spanning the feature
	// range so the map unfolds quickly, plus small symmetric jitter.
	span := float64(hi - lo)
	if span == 0 {
		span = 1
	}
	for y := 0; y < m.side; y++ {
		for x := 0; x < m.side; x++ {
			frac := float64(x+y) / float64(2*(m.side-1))
			m.weights[y*m.side+x] = float64(lo) + frac*span + (rng.Float64()-0.5)*span*0.05
		}
	}

	order := rng.Perm(len(features))
	total := cfg.Epochs * len(features)
	step := 0
	for e := 0; e < cfg.Epochs; e++ {
		for _, idx := range order {
			progress := float64(step) / float64(total)
			lr := cfg.LearnRate * math.Exp(-3*progress)
			radius := cfg.InitRadius * math.Exp(-3*progress)
			if radius < 0.5 {
				radius = 0.5
			}
			m.update(float64(features[idx]), lr, radius)
			step++
		}
	}
	return m, nil
}

// update moves the best-matching unit and its lattice neighborhood
// toward the sample.
func (m *Map) update(sample, lr, radius float64) {
	bx, by := m.bmu(sample)
	r2 := radius * radius
	// Only neurons within ~3 radii matter; restrict the scan window.
	w := int(radius*3) + 1
	for y := by - w; y <= by+w; y++ {
		if y < 0 || y >= m.side {
			continue
		}
		for x := bx - w; x <= bx+w; x++ {
			if x < 0 || x >= m.side {
				continue
			}
			d2 := float64((x-bx)*(x-bx) + (y-by)*(y-by))
			influence := math.Exp(-d2 / (2 * r2))
			i := y*m.side + x
			m.weights[i] += lr * influence * (sample - m.weights[i])
		}
	}
}

// bmu returns the lattice coordinates of the best matching unit,
// breaking ties toward the lower index for determinism.
func (m *Map) bmu(sample float64) (x, y int) {
	best := math.Inf(1)
	bi := 0
	for i, w := range m.weights {
		if d := math.Abs(w - sample); d < best {
			best = d
			bi = i
		}
	}
	return bi % m.side, bi / m.side
}

// place maps each feature to the deployment-region position of its
// best-matching neuron, jittered within the neuron's cell so co-mapped
// nodes do not collapse onto one point. Positions lie in [0,side)².
func (m *Map) place(features []int, regionSide float64, rng *rand.Rand) []wsn.Point {
	return m.PlaceSpread(features, regionSide, 1, rng)
}

// PlaceSpread is like place, with a configurable jitter radius: spread 1
// jitters within the neuron's own lattice cell; larger values smear
// positions across neighboring cells, trading a little spatial
// correlation for a connected deployment when the feature distribution
// concentrates the best-matching units in a narrow band.
func (m *Map) PlaceSpread(features []int, regionSide, spread float64, rng *rand.Rand) []wsn.Point {
	if spread < 1 {
		spread = 1
	}
	cell := regionSide / float64(m.side)
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v >= regionSide {
			return math.Nextafter(regionSide, 0)
		}
		return v
	}
	out := make([]wsn.Point, len(features))
	for i, f := range features {
		x, y := m.bmu(float64(f))
		jx := (rng.Float64() - 0.5) * spread
		jy := (rng.Float64() - 0.5) * spread
		out[i] = wsn.Point{
			X: clamp((float64(x) + 0.5 + jx) * cell),
			Y: clamp((float64(y) + 0.5 + jy) * cell),
		}
	}
	return out
}

// PlaceByFirstValue is the convenience entry point matching the paper's
// setup: train a SOM on the nodes' first measurements and return one
// position per node in a regionSide×regionSide area.
func PlaceByFirstValue(firstValues []int, regionSide float64, cfg Config, rng *rand.Rand) ([]wsn.Point, error) {
	m, err := Train(firstValues, cfg, rng)
	if err != nil {
		return nil, err
	}
	return m.place(firstValues, regionSide, rng), nil
}
