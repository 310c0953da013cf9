package wsn

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// oldTraversal is the traversal the tree builders and Reparent derived
// before derive existed: children listed in index order, then a
// recursive depth-first walk from the root's children.
func oldTraversal(parent []int) (children [][]int, rootChildren, depth, postOrder []int) {
	n := len(parent)
	children, depth = make([][]int, n), make([]int, n)
	for i, p := range parent {
		if p == -1 {
			rootChildren = append(rootChildren, i)
		} else {
			children[p] = append(children[p], i)
		}
	}
	var visit func(u, d int)
	visit = func(u, d int) {
		depth[u] = d
		for _, c := range children[u] {
			visit(c, d+1)
		}
		postOrder = append(postOrder, u)
	}
	for _, c := range rootChildren {
		visit(c, 1)
	}
	return children, rootChildren, depth, postOrder
}

// oldExpandTraversal is ExpandVirtual's former traversal: the real
// tree's children copied, each host's artificial children appended
// after them, and the post-order rebuilt over the result.
func oldExpandTraversal(t *Topology, valuesPerNode int) (children [][]int, depth, postOrder []int) {
	n, extra := t.N(), valuesPerNode-1
	children, depth = make([][]int, n*valuesPerNode), make([]int, n*valuesPerNode)
	copy(depth, t.Depth)
	for i := 0; i < n; i++ {
		children[i] = append([]int(nil), t.Children[i]...)
		for j := 0; j < extra; j++ {
			id := n + i*extra + j
			depth[id] = t.Depth[i] + 1
			children[i] = append(children[i], id)
		}
	}
	var visit func(u int)
	visit = func(u int) {
		for _, c := range children[u] {
			visit(c)
		}
		postOrder = append(postOrder, u)
	}
	for _, c := range t.RootChildren {
		visit(c)
	}
	return children, depth, postOrder
}

// checkRelay fails unless Relay marks exactly the nodes a scan of their
// children finds a non-virtual one under.
func checkRelay(t *testing.T, where string, top *Topology) {
	t.Helper()
	if len(top.Relay) != top.N() {
		t.Fatalf("%s: %d relay flags for %d sensors", where, len(top.Relay), top.N())
	}
	for u, ch := range top.Children {
		want := false
		for _, c := range ch {
			want = want || !top.IsVirtual(c)
		}
		if top.Relay[u] != want {
			t.Fatalf("%s: Relay[%d] = %v, children %v say %v", where, u, top.Relay[u], ch, want)
		}
	}
}

// checkOldTraversal fails unless the derived fields equal the former
// builder's output for the same parent vector.
func checkOldTraversal(t *testing.T, where string, top *Topology) {
	t.Helper()
	children, rootChildren, depth, postOrder := oldTraversal(top.Parent)
	if !reflect.DeepEqual(top.Children, children) || !reflect.DeepEqual(top.RootChildren, rootChildren) ||
		!reflect.DeepEqual(top.Depth, depth) || !reflect.DeepEqual(top.PostOrder, postOrder) {
		t.Fatalf("%s: derived traversal differs from the former builder's", where)
	}
}

// TestDeriveMatchesFormerBuilders: on seeded trees, every path that
// derives the traversal — both tree builders, ExpandVirtual, Clone and
// a sequence of Reparents — yields the former builders' Children,
// RootChildren, Depth and PostOrder, and a Relay flag equal to a fresh
// children scan.
func TestDeriveMatchesFormerBuilders(t *testing.T) {
	built, moves := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(60)
		pos := randomPlacement(n, 150, rng)
		build := BuildTree
		if seed%2 == 0 {
			build = BuildTreeBFS
		}
		top, err := build(pos, Point{X: 75, Y: 75}, 40)
		if err != nil {
			continue
		}
		built++
		where := fmt.Sprintf("seed %d", seed)
		checkOldTraversal(t, where, top)
		checkRelay(t, where, top)

		values := 1 + int(seed%3)
		ex, err := ExpandVirtual(top, values)
		if err != nil {
			t.Fatal(err)
		}
		if values > 1 {
			children, depth, postOrder := oldExpandTraversal(top, values)
			if !reflect.DeepEqual(ex.Children, children) || !reflect.DeepEqual(ex.Depth, depth) ||
				!reflect.DeepEqual(ex.PostOrder, postOrder) || !reflect.DeepEqual(ex.RootChildren, top.RootChildren) {
				t.Fatalf("%s: ExpandVirtual(%d) traversal differs from the former one", where, values)
			}
		}
		checkRelay(t, where+" expanded", ex)

		c := ex.Clone()
		if !reflect.DeepEqual(c.Relay, ex.Relay) {
			t.Fatalf("%s: Clone dropped the relay flags", where)
		}
		reach := make([]bool, c.N())
		for i := range reach {
			reach[i] = true
		}
		for m := 0; m < 12; m++ {
			u := rng.Intn(top.N()) // a real sensor
			p, ok := c.RepairCandidate(u, reach, rng.Intn(4) == 0)
			if !ok || p == c.Parent[u] {
				continue
			}
			if err := c.Reparent(u, p); err != nil {
				t.Fatalf("%s: Reparent(%d, %d): %v", where, u, p, err)
			}
			moves++
			at := fmt.Sprintf("%s move %d", where, m)
			checkOldTraversal(t, at, c)
			checkRelay(t, at, c)
		}
		checkRelay(t, where+" original after clone moves", ex)
	}
	if built < 10 || moves == 0 {
		t.Fatalf("fixture too tame: %d connected trees, %d Reparents applied", built, moves)
	}
}
