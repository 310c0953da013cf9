package wsn

import (
	"errors"
	"math/rand"
	"testing"
)

func TestBuildTreeBFSLine(t *testing.T) {
	top, err := BuildTreeBFS(line(3, 10), Point{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	wantParent := []int{-1, 0, 1}
	for i, p := range top.Parent {
		if p != wantParent[i] {
			t.Errorf("Parent[%d] = %d, want %d", i, p, wantParent[i])
		}
	}
}

func TestBuildTreeBFSDisconnected(t *testing.T) {
	_, err := BuildTreeBFS(line(3, 10), Point{}, 5)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
	if _, err := BuildTreeBFS(nil, Point{}, 10); err == nil {
		t.Error("empty placement accepted")
	}
	if _, err := BuildTreeBFS(line(2, 1), Point{}, 0); err == nil {
		t.Error("zero range accepted")
	}
}

func TestBFSMinimizesHops(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pos := randomPlacement(300, 200, rng)
	root := Point{X: 100, Y: 100}
	bfs, err := BuildTreeBFS(pos, root, 40)
	if err != nil {
		t.Skip("placement disconnected")
	}
	spt, err := BuildTree(pos, root, 40)
	if err != nil {
		t.Fatal(err)
	}
	// The BFS tree's depth is the hop distance, which lower-bounds any
	// tree's depth per node.
	for i := range pos {
		if bfs.Depth[i] > spt.Depth[i] {
			t.Errorf("node %d: BFS depth %d > SPT depth %d", i, bfs.Depth[i], spt.Depth[i])
		}
	}
	if bfs.MaxDepth() > spt.MaxDepth() {
		t.Errorf("BFS max depth %d > SPT %d", bfs.MaxDepth(), spt.MaxDepth())
	}
}

func TestBFSStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pos := randomPlacement(200, 200, rng)
	top, err := BuildTreeBFS(pos, Point{X: 100, Y: 100}, 45)
	if err != nil {
		t.Skip("placement disconnected")
	}
	// Edges respect the radio range, children match parents, post-order
	// is complete.
	for i, p := range top.Parent {
		pp := top.Root
		if p != -1 {
			pp = top.Pos[p]
		}
		if d := top.Pos[i].Dist(pp); d > top.Range+1e-9 {
			t.Errorf("edge %d->%d length %.2f exceeds range", i, p, d)
		}
	}
	seen := make([]bool, top.N())
	for _, u := range top.PostOrder {
		for _, c := range top.Children[u] {
			if !seen[c] {
				t.Fatalf("node %d before child %d", u, c)
			}
		}
		seen[u] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("node %d missing", i)
		}
	}
}
