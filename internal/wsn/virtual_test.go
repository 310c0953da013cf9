package wsn

import (
	"math/rand"
	"testing"
)

func TestExpandVirtualStructure(t *testing.T) {
	top, err := BuildTree(line(3, 10), Point{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := ExpandVirtual(top, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 9 {
		t.Fatalf("expanded N = %d, want 9", ex.N())
	}
	// Real nodes keep their ids and parents.
	for i := 0; i < 3; i++ {
		if ex.Parent[i] != top.Parent[i] {
			t.Errorf("real node %d parent changed", i)
		}
		if ex.IsVirtual(i) {
			t.Errorf("real node %d marked virtual", i)
		}
	}
	// Virtual children: co-located, parented at their host, depth +1.
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			id := 3 + i*2 + j
			if ex.Parent[id] != i {
				t.Errorf("virtual %d parent = %d, want %d", id, ex.Parent[id], i)
			}
			if ex.Pos[id] != top.Pos[i] {
				t.Errorf("virtual %d not co-located", id)
			}
			if !ex.IsVirtual(id) {
				t.Errorf("virtual %d not marked", id)
			}
			if ex.Depth[id] != top.Depth[i]+1 {
				t.Errorf("virtual %d depth = %d", id, ex.Depth[id])
			}
		}
	}
	// Post-order covers everyone, children first.
	seen := make([]bool, ex.N())
	for _, u := range ex.PostOrder {
		for _, c := range ex.Children[u] {
			if !seen[c] {
				t.Fatalf("node %d before child %d", u, c)
			}
		}
		seen[u] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("node %d missing from post-order", i)
		}
	}
}

func TestExpandVirtualValidation(t *testing.T) {
	top, err := BuildTree(line(2, 10), Point{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpandVirtual(top, 0); err == nil {
		t.Error("zero values per node accepted")
	}
	same, err := ExpandVirtual(top, 1)
	if err != nil || same != top {
		t.Error("m=1 should return the topology unchanged")
	}
	ex, err := ExpandVirtual(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpandVirtual(ex, 2); err == nil {
		t.Error("double expansion accepted")
	}
}

func TestExpandVirtualLargeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	top, err := BuildConnectedTree(100, 200, 45, rng, 50, BuildTree)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := ExpandVirtual(top, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 400 {
		t.Fatalf("expanded N = %d", ex.N())
	}
	virtual := 0
	for i := 0; i < ex.N(); i++ {
		if ex.IsVirtual(i) {
			virtual++
			if len(ex.Children[i]) != 0 {
				t.Errorf("virtual node %d has children", i)
			}
		}
	}
	if virtual != 300 {
		t.Errorf("%d virtual nodes, want 300", virtual)
	}
}
