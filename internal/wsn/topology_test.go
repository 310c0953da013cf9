package wsn

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func line(n int, spacing float64) []Point {
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{X: float64(i+1) * spacing}
	}
	return pos
}

func TestBuildTreeLine(t *testing.T) {
	// Nodes at x = 10, 20, 30 with range 12: a chain hanging off the
	// root at the origin.
	top, err := BuildTree(line(3, 10), Point{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if top.N() != 3 {
		t.Fatalf("N = %d", top.N())
	}
	wantParent := []int{-1, 0, 1}
	for i, p := range top.Parent {
		if p != wantParent[i] {
			t.Errorf("Parent[%d] = %d, want %d", i, p, wantParent[i])
		}
	}
	if top.MaxDepth() != 3 {
		t.Errorf("MaxDepth = %d, want 3", top.MaxDepth())
	}
	if len(top.RootChildren) != 1 || top.RootChildren[0] != 0 {
		t.Errorf("RootChildren = %v", top.RootChildren)
	}
}

func TestBuildTreeDisconnected(t *testing.T) {
	_, err := BuildTree(line(3, 10), Point{}, 5)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
}

func TestBuildTreeRejectsBadInput(t *testing.T) {
	if _, err := BuildTree(nil, Point{}, 10); err == nil {
		t.Error("empty placement accepted")
	}
	if _, err := BuildTree(line(2, 1), Point{}, 0); err == nil {
		t.Error("zero range accepted")
	}
}

func TestPostOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	top, err := BuildConnectedTree(300, 200, 35, rng, 50, BuildTree)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, top.N())
	for _, u := range top.PostOrder {
		for _, c := range top.Children[u] {
			if !seen[c] {
				t.Fatalf("node %d appears before its child %d", u, c)
			}
		}
		if seen[u] {
			t.Fatalf("node %d appears twice in post-order", u)
		}
		seen[u] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("node %d missing from post-order", i)
		}
	}
}

func TestTreeStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	top, err := BuildConnectedTree(500, 200, 35, rng, 50, BuildTree)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge respects the radio range.
	for i, p := range top.Parent {
		var pp Point
		if p == -1 {
			pp = top.Root
		} else {
			pp = top.Pos[p]
		}
		if d := top.Pos[i].Dist(pp); d > top.Range+1e-9 {
			t.Errorf("edge %d->%d length %.2f exceeds range %.2f", i, p, d, top.Range)
		}
	}
	// Children lists are consistent with parents.
	count := len(top.RootChildren)
	for u, cs := range top.Children {
		for _, c := range cs {
			if top.Parent[c] != u {
				t.Errorf("child %d of %d has Parent %d", c, u, top.Parent[c])
			}
			count++
		}
	}
	if count != top.N() {
		t.Errorf("children lists cover %d nodes, want %d", count, top.N())
	}
	// Depth increases by one along each edge.
	for i, p := range top.Parent {
		want := 1
		if p != -1 {
			want = top.Depth[p] + 1
		}
		if top.Depth[i] != want {
			t.Errorf("Depth[%d] = %d, want %d", i, top.Depth[i], want)
		}
	}
}

func TestShortestPathOptimality(t *testing.T) {
	// On a small deployment, verify via Bellman-Ford that the tree path
	// length from each node to the root is the true shortest path.
	rng := rand.New(rand.NewSource(11))
	top, err := BuildConnectedTree(60, 100, 30, rng, 50, BuildTree)
	if err != nil {
		t.Fatal(err)
	}
	n := top.N()
	const inf = 1e18
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = inf
		if d := top.Pos[i].Dist(top.Root); d <= top.Range {
			dist[i] = d
		}
	}
	for iter := 0; iter < n; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				d := top.Pos[i].Dist(top.Pos[j])
				if d <= top.Range && dist[j]+d < dist[i]-1e-12 {
					dist[i] = dist[j] + d
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for i := 0; i < n; i++ {
		// Tree path length.
		pl := 0.0
		u := i
		for u != -1 {
			p := top.Parent[u]
			if p == -1 {
				pl += top.Pos[u].Dist(top.Root)
			} else {
				pl += top.Pos[u].Dist(top.Pos[p])
			}
			u = p
		}
		if pl > dist[i]+1e-6 {
			t.Errorf("node %d: tree path %.4f > shortest %.4f", i, pl, dist[i])
		}
	}
}

func TestBuildTreeDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(3))
	rng2 := rand.New(rand.NewSource(3))
	a, err := BuildConnectedTree(200, 200, 35, rng1, 50, BuildTree)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildConnectedTree(200, 200, 35, rng2, 50, BuildTree)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Parent {
		if a.Parent[i] != b.Parent[i] {
			t.Fatalf("non-deterministic parent at node %d", i)
		}
	}
}

func TestBuildTreeWithRootAt(t *testing.T) {
	pos := line(4, 10)
	top, err := buildTreeWithRootAt(pos, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if top.Root != pos[1] {
		t.Errorf("root not co-located: %v", top.Root)
	}
	if _, err := buildTreeWithRootAt(pos, 9, 12); err == nil {
		t.Error("out-of-range root index accepted")
	}
}

func TestRandomPlacementBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range randomPlacement(1000, 200, rng) {
		if p.X < 0 || p.X > 200 || p.Y < 0 || p.Y > 200 {
			t.Fatalf("placement out of region: %v", p)
		}
	}
}

// buildTreeWithRootAt builds a tree using one of the given positions as
// the sink location (the sensor keeps existing; the sink is co-located).
// This mirrors the real-dataset setup where runs differ only in which
// root is selected.
func buildTreeWithRootAt(pos []Point, rootIdx int, radioRange float64) (*Topology, error) {
	if rootIdx < 0 || rootIdx >= len(pos) {
		return nil, fmt.Errorf("wsn: root index %d out of range", rootIdx)
	}
	return BuildTree(pos, pos[rootIdx], radioRange)
}
