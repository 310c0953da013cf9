package wsn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// scanShortestPathTree is the O(N²) reference Dijkstra: each next
// sensor is found by a linear scan over all of them, ties breaking on
// the lower index. shortestPathTree must reproduce its parent vectors.
func scanShortestPathTree(pos []Point, root Point, radioRange float64, g discGraph) (*Topology, error) {
	n := len(pos)
	const inf = math.MaxFloat64
	dist := make([]float64, n)
	parent := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
		parent[i] = -2 // unreached
	}
	for i, p := range pos {
		if d := p.Dist(root); d <= radioRange {
			dist[i] = d
			parent[i] = -1
		}
	}
	for {
		u := -1
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < inf && (u == -1 || dist[i] < dist[u]) {
				u = i
			}
		}
		if u == -1 {
			break
		}
		done[u] = true
		for _, v32 := range g.neighbors(u) {
			v := int(v32)
			if done[v] {
				continue
			}
			nd := dist[u] + pos[u].Dist(pos[v])
			if nd < dist[v] || (nd == dist[v] && parent[v] > u) {
				dist[v] = nd
				parent[v] = u
			}
		}
	}
	for i := 0; i < n; i++ {
		if parent[i] == -2 {
			return nil, fmt.Errorf("%w: node %d at (%.1f, %.1f)", ErrDisconnected, i, pos[i].X, pos[i].Y)
		}
	}
	return assemble(pos, root, radioRange, parent)
}

// checkSameSPT requires the heap Dijkstra and the scan reference to
// agree on the parent vector, or on the disconnection error.
func checkSameSPT(t *testing.T, name string, pos []Point, root Point, radioRange float64) bool {
	t.Helper()
	g := newDiscGraph(pos, radioRange)
	got, gotErr := shortestPathTree(pos, root, radioRange, g)
	want, wantErr := scanShortestPathTree(pos, root, radioRange, g)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return false
	}
	if !reflect.DeepEqual(got.Parent, want.Parent) {
		for i := range got.Parent {
			if got.Parent[i] != want.Parent[i] {
				t.Fatalf("%s: Parent[%d] = %d, want %d", name, i, got.Parent[i], want.Parent[i])
			}
		}
	}
	return true
}

// TestShortestPathTreeMatchesScan: the heap Dijkstra builds the same
// trees as the linear-scan reference on every tree fixture (lattice,
// coincident, collinear and diagonal are tie-heavy) and on seeded
// random placements, a third of them snapped to a 5 m grid so equal
// path lengths and boundary-length edges are common.
func TestShortestPathTreeMatchesScan(t *testing.T) {
	for _, f := range discFixtures() {
		if f.trees && !checkSameSPT(t, f.name, f.pos, f.root, f.rng) {
			t.Fatalf("%s: fixture is not connected", f.name)
		}
	}
	// Under an infinite range, distances that overflow to +Inf reach
	// sensors that the scan never extracts.
	huge := []Point{{X: -1e308}, {X: 1e308}, {X: 1e308, Y: 1}, {Y: 1}}
	if !checkSameSPT(t, "overflow", huge, Point{X: -1e308}, math.Inf(1)) {
		t.Fatal("overflow: not connected")
	}
	rng := rand.New(rand.NewSource(29))
	const placements = 300
	connected := 0
	for k := 0; k < placements; k++ {
		n := 20 + rng.Intn(601)
		// About 80 m² per sensor, as in the paper's 500 sensors on
		// 200 m × 200 m, with ranges of 20–45 m around its 35 m.
		side := math.Sqrt(80 * float64(n))
		radioRange := 20 + rng.Float64()*25
		pos := randomPlacement(n, side, rng)
		root := Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		if k%3 == 0 {
			snap := func(v float64) float64 { return math.Round(v/5) * 5 }
			for i := range pos {
				pos[i] = Point{X: snap(pos[i].X), Y: snap(pos[i].Y)}
			}
			root = Point{X: snap(root.X), Y: snap(root.Y)}
			radioRange = math.Round(radioRange/5) * 5
		}
		if checkSameSPT(t, fmt.Sprintf("placement %d (n=%d)", k, n), pos, root, radioRange) {
			connected++
		}
	}
	// The disconnected placements only compare errors; most must be
	// connected for the parent vectors to be tested at all.
	if connected < placements*3/4 {
		t.Fatalf("only %d of %d placements connected", connected, placements)
	}
	t.Logf("%d of %d placements connected", connected, placements)
}

// BenchmarkBuildTree times the whole shortest-path tree build (disc
// graph, Dijkstra and derived fields) on the paper's 200 m × 200 m area
// with a 35 m range, at its default |N| and at Figure 6's largest.
func BenchmarkBuildTree(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pos := randomPlacement(n, 200, rand.New(rand.NewSource(1)))
			root := Point{X: 100, Y: 100}
			if _, err := BuildTree(pos, root, 35); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildTree(pos, root, 35); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
