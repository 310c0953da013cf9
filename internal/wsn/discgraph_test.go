package wsn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// bruteDiscGraph is the O(N²) reference disc graph. With a non-nil rng
// every neighbour list is shuffled, so tree builders fed with it prove
// that neighbour order does not matter.
func bruteDiscGraph(pos []Point, radioRange float64, rng *rand.Rand) discGraph {
	g := discGraph{off: make([]int, len(pos)+1)}
	for i, p := range pos {
		start := len(g.nbr)
		for j, q := range pos {
			if j != i && p.Dist(q) <= radioRange {
				g.nbr = append(g.nbr, int32(j))
			}
		}
		if rng != nil {
			nb := g.nbr[start:]
			rng.Shuffle(len(nb), func(a, b int) { nb[a], nb[b] = nb[b], nb[a] })
		}
		g.off[i+1] = len(g.nbr)
	}
	return g
}

// checkSameGraph requires g and want to list the same neighbour set for
// every sensor.
func checkSameGraph(t *testing.T, name string, g, want discGraph, n int) {
	t.Helper()
	if len(g.off) != n+1 {
		t.Fatalf("%s: %d offsets for %d sensors", name, len(g.off), n)
	}
	for i := 0; i < n; i++ {
		got, exp := slices.Clone(g.neighbors(i)), slices.Clone(want.neighbors(i))
		slices.Sort(got)
		slices.Sort(exp)
		if !slices.Equal(got, exp) {
			t.Fatalf("%s: sensor %d neighbours %v, want %v", name, i, got, exp)
		}
	}
}

// discFixture is one placement shape the disc graph must handle.
type discFixture struct {
	name  string
	pos   []Point
	root  Point
	rng   float64
	trees bool // connected to the root: compare the tree builders too
}

func discFixtures() []discFixture {
	rng := rand.New(rand.NewSource(11))
	uniform := randomPlacement(400, 200, rng)
	var clustered []Point
	for c := 0; c < 5; c++ {
		cx, cy := rng.Float64()*150, rng.Float64()*150
		for i := 0; i < 60; i++ {
			clustered = append(clustered, Point{X: cx + rng.NormFloat64()*4, Y: cy + rng.NormFloat64()*4})
		}
	}
	var collinear, diagonal []Point
	for i := 0; i < 120; i++ {
		collinear = append(collinear, Point{X: float64(i) * 7, Y: 50})
		diagonal = append(diagonal, Point{X: float64(i) * 5, Y: float64(i) * 5})
	}
	coincident := make([]Point, 50)
	for i := range coincident {
		coincident[i] = Point{X: 13, Y: 17}
	}
	// A lattice whose spacing is exactly the radio range puts many
	// pairs at exactly the boundary distance.
	var lattice []Point
	for x := 0; x < 15; x++ {
		for y := 0; y < 15; y++ {
			lattice = append(lattice, Point{X: float64(x) * 10, Y: float64(y) * 10})
		}
	}
	// Two sensors one range apart whose cell coordinates, offset from
	// the leftmost sensor, round to 72.99… and 74.0: without the cell
	// margin they would land two cells apart. The filler keeps the
	// cells one range wide.
	rounding := []Point{{X: 375.614892394484}, {X: 382.614892394484}}
	for i := 0; i < 81; i++ {
		rounding = append(rounding, Point{X: -135.38510760551594 + float64(i)*6.4})
	}
	// Area far beyond the range: the grid must widen its cells.
	sparse := randomPlacement(300, 1e7, rng)
	sparse = append(sparse, Point{X: 5e6, Y: 5e6}, Point{X: 5e6 + 20, Y: 5e6})
	// Pairs at r·(1 ± 1e-12) and at r, in random directions from
	// positions that are not exactly representable, land inside the
	// squared-distance screening band and take the exact test; pairs at
	// r·(1 ± 1e-9) sit just outside it. Near the origin the coordinates
	// round finely, so many "exactly r" pairs square to within an ulp
	// of r², where screening on r² alone disagrees with Dist: for this
	// range the float just above r·r still has r as its square root.
	const bandRange = 9.7
	var band []Point
	for k := 0; k < 400; k++ {
		f := [...]float64{1 - 1e-12, 1 + 1e-12, 1 - 1e-9, 1 + 1e-9, 1, 1, 1, 1}[k%8]
		p := Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		a := rng.Float64() * 2 * math.Pi
		band = append(band, p, Point{X: p.X + bandRange*f*math.Cos(a), Y: p.Y + bandRange*f*math.Sin(a)})
	}
	return []discFixture{
		{"uniform", uniform, Point{X: 100, Y: 100}, 35, true},
		{"clustered", clustered, Point{}, 9, false},
		{"collinear", collinear, Point{X: 0, Y: 50}, 7, true},
		{"diagonal", diagonal, Point{}, 9, true},
		{"coincident", coincident, Point{X: 10, Y: 14}, 5, true},
		{"lattice", lattice, Point{}, 10, true},
		{"rounding", rounding, Point{}, 7, false},
		{"sparse", sparse, Point{}, 35, false},
		{"band", band, Point{}, bandRange, false},
	}
}

// TestDiscGraphMatchesBruteForce: the grid-binned flat graph lists
// exactly the brute-force neighbour sets.
func TestDiscGraphMatchesBruteForce(t *testing.T) {
	for _, f := range discFixtures() {
		checkSameGraph(t, f.name, newDiscGraph(f.pos, f.rng), bruteDiscGraph(f.pos, f.rng, nil), len(f.pos))
	}
}

// TestTreesIgnoreNeighbourOrder: both tree builders produce the same
// parent vectors from the flat graph as from a brute-force graph with
// shuffled neighbour lists.
func TestTreesIgnoreNeighbourOrder(t *testing.T) {
	builders := []struct {
		name  string
		build func([]Point, Point, float64, discGraph) (*Topology, error)
	}{{"spt", shortestPathTree}, {"bfs", hopCountTree}}
	shuffle := rand.New(rand.NewSource(3))
	for _, f := range discFixtures() {
		if !f.trees {
			continue
		}
		for _, b := range builders {
			got, err := b.build(f.pos, f.root, f.rng, newDiscGraph(f.pos, f.rng))
			if err != nil {
				t.Fatalf("%s %s: %v", f.name, b.name, err)
			}
			for rep := 0; rep < 3; rep++ {
				want, err := b.build(f.pos, f.root, f.rng, bruteDiscGraph(f.pos, f.rng, shuffle))
				if err != nil {
					t.Fatalf("%s %s reference: %v", f.name, b.name, err)
				}
				if !reflect.DeepEqual(got.Parent, want.Parent) {
					t.Fatalf("%s %s: parents differ from the shuffled brute-force reference", f.name, b.name)
				}
			}
		}
	}
}

// FuzzDiscGraph compares the flat graph with brute force on fuzzed
// positions (int16 pairs times a scale) and radio range.
func FuzzDiscGraph(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 0, 20, 0, 0, 100, 0, 100, 10}, 1.0, 10.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1e6, 3.0)
	f.Add([]byte{255, 255, 0, 0, 127, 255, 128, 0}, 1e-3, 1e-3)
	// r² overflows: a pair 2e154 apart squares to +Inf as well, which
	// only the exact test rejects.
	f.Add([]byte{0, 0, 0, 0, 20, 0, 0, 0}, 1e153, 1.5e154)
	// Infinite coordinates: the squared distance is NaN.
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0}, math.Inf(1), 10.0)
	f.Fuzz(func(t *testing.T, raw []byte, scale, radioRange float64) {
		if !(radioRange > 0) {
			t.Skip()
		}
		n := min(len(raw)/4, 64)
		pos := make([]Point, n)
		for i := range pos {
			x := int16(binary.LittleEndian.Uint16(raw[4*i:]))
			y := int16(binary.LittleEndian.Uint16(raw[4*i+2:]))
			pos[i] = Point{X: float64(x) * scale, Y: float64(y) * scale}
		}
		checkSameGraph(t, "fuzz", newDiscGraph(pos, radioRange), bruteDiscGraph(pos, radioRange, nil), n)
	})
}
