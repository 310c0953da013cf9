package wsn

import (
	"reflect"
	"testing"
)

// chain builds the 4-node line root—0—1—2—3 with unit spacing and a
// radio range that also lets adjacent-but-one nodes hear each other
// when widened by tests.
func chainTopology(t *testing.T, radioRange float64) *Topology {
	t.Helper()
	pos := []Point{{1, 0}, {2, 0}, {3, 0}, {4, 0}}
	top, err := BuildTree(pos, Point{0, 0}, radioRange)
	if err != nil {
		t.Fatalf("BuildTree: %v", err)
	}
	return top
}

func TestCloneIsDeep(t *testing.T) {
	top := chainTopology(t, 1.1)
	c := top.Clone()
	if !reflect.DeepEqual(top, c) {
		t.Fatal("clone differs from original")
	}
	c.Parent[2] = -1
	if err := c.derive(); err != nil {
		t.Fatalf("derive: %v", err)
	}
	if top.Parent[2] != 1 || len(top.RootChildren) != 1 || len(top.Children[1]) != 1 {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestInSubtree(t *testing.T) {
	top := chainTopology(t, 1.1)
	if !top.InSubtree(3, 1) || !top.InSubtree(1, 1) {
		t.Fatal("descendants not detected")
	}
	if top.InSubtree(0, 1) {
		t.Fatal("ancestor misreported as descendant")
	}
}

func TestReparentRebuildsDerivedFields(t *testing.T) {
	// True chain root—0—1—2—3; move 2 (with subtree {3}) under 0.
	top := chainTopology(t, 1.1)
	if err := top.Reparent(2, 0); err != nil {
		t.Fatalf("Reparent: %v", err)
	}
	if top.Parent[2] != 0 {
		t.Fatalf("Parent[2] = %d, want 0", top.Parent[2])
	}
	if top.Depth[2] != 2 || top.Depth[3] != 3 {
		t.Fatalf("depths not rebuilt: %v", top.Depth)
	}
	// Post-order must still list children before parents and span all.
	seen := map[int]bool{}
	for _, u := range top.PostOrder {
		for _, c := range top.Children[u] {
			if !seen[c] {
				t.Fatalf("post-order lists %d before its child %d", u, c)
			}
		}
		seen[u] = true
	}
	if len(top.PostOrder) != 4 {
		t.Fatalf("post-order has %d entries, want 4", len(top.PostOrder))
	}
}

func TestReparentRejectsCycle(t *testing.T) {
	top := chainTopology(t, 2.1)
	if err := top.Reparent(1, 3); err == nil {
		t.Fatal("reparenting 1 under its own descendant must fail")
	}
	if err := top.Reparent(1, 1); err == nil {
		t.Fatal("self-parenting must fail")
	}
}

func TestRepairCandidateSelection(t *testing.T) {
	// Diamond: 0 and 1 both at depth 1; 2 hears both but sits closer
	// to 1.
	pos := []Point{{0, 1}, {0.3, 1.05}, {0.2, 2}}
	top, err := BuildTree(pos, Point{0, 0}, 1.1)
	if err != nil {
		t.Fatalf("BuildTree: %v", err)
	}
	reach := []bool{true, true, true}
	p, ok := top.RepairCandidate(2, reach, false)
	if !ok {
		t.Fatal("no candidate found")
	}
	// Depth ties between 0 and 1; node 1 is closer to node 2.
	if want := 1; p != want {
		t.Fatalf("candidate = %d, want %d", p, want)
	}
	// Knock out node 1: node 0 is next best.
	reach[1] = false
	if p, ok = top.RepairCandidate(2, reach, false); !ok || p != 0 {
		t.Fatalf("candidate = %d,%v, want 0,true", p, ok)
	}
	// Own subtree is never a candidate.
	reach = []bool{true, true, true}
	if p, ok = top.RepairCandidate(1, []bool{false, true, true}, false); ok && top.InSubtree(p, 1) {
		t.Fatalf("candidate %d is inside the orphan's subtree", p)
	}
}

func TestRepairCandidateRootPreferred(t *testing.T) {
	top := chainTopology(t, 2.1)
	// Node 1 hears the root (dist 2 ≤ 2.1) and node 0 — the root's
	// depth 0 beats node 0's depth 1.
	p, ok := top.RepairCandidate(1, []bool{true, false, false, false}, true)
	if !ok || p != -1 {
		t.Fatalf("candidate = %d,%v, want root (-1)", p, ok)
	}
	// With the root barred (partition), node 0 wins.
	p, ok = top.RepairCandidate(1, []bool{true, false, false, false}, false)
	if !ok || p != 0 {
		t.Fatalf("candidate = %d,%v, want 0", p, ok)
	}
}

func TestRepairCandidateVirtualExcluded(t *testing.T) {
	top := chainTopology(t, 2.1)
	aug, err := ExpandVirtual(top, 2)
	if err != nil {
		t.Fatalf("ExpandVirtual: %v", err)
	}
	// Virtual nodes must never be parents even when in range.
	reach := make([]bool, aug.N())
	for i := range reach {
		reach[i] = true
	}
	p, ok := aug.RepairCandidate(3, reach, false)
	if !ok {
		t.Fatal("no candidate")
	}
	if aug.IsVirtual(p) {
		t.Fatalf("virtual node %d chosen as parent", p)
	}
	if err := aug.Reparent(3, 4); err == nil && aug.IsVirtual(4) {
		t.Fatal("Reparent accepted a virtual parent")
	}
}

func TestRepairCandidateNoneInRange(t *testing.T) {
	top := chainTopology(t, 1.1)
	// Node 3 hears only node 2; with 2 unreachable there is nothing.
	if _, ok := top.RepairCandidate(3, []bool{true, true, false, false}, true); ok {
		t.Fatal("found a candidate out of radio range")
	}
}
