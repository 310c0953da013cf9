package wsn

import (
	"fmt"
	"math"
)

// This file is the routing-tree repair layer: when fault injection
// detaches a subtree (its head lost the link to its parent for good),
// the simulator clones the deployment's immutable topology and
// re-parents the orphan onto the best in-range neighbor that still
// reaches the sink, then rebuilds the derived traversal structures.

// Clone returns a deep copy of the topology, safe to mutate while the
// original keeps serving other runs of the shared deployment. The
// children lists are copied into one flat array of the clone's own.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		Pos:          append([]Point(nil), t.Pos...),
		Root:         t.Root,
		Range:        t.Range,
		Parent:       append([]int(nil), t.Parent...),
		Children:     make([][]int, len(t.Children)),
		RootChildren: append([]int(nil), t.RootChildren...),
		Depth:        append([]int(nil), t.Depth...),
		PostOrder:    append([]int(nil), t.PostOrder...),
		Relay:        append([]bool(nil), t.Relay...),
	}
	flat := make([]int, 0, len(t.Parent)-len(t.RootChildren))
	for i, ch := range t.Children {
		if len(ch) > 0 {
			flat = append(flat, ch...)
			c.Children[i] = flat[len(flat)-len(ch) : len(flat) : len(flat)]
		}
	}
	if t.VirtualEdge != nil {
		c.VirtualEdge = append([]bool(nil), t.VirtualEdge...)
	}
	return c
}

// InSubtree reports whether v lies in the subtree rooted at u
// (including v == u), by walking v's parent chain.
func (t *Topology) InSubtree(v, u int) bool {
	for v >= 0 {
		if v == u {
			return true
		}
		v = t.Parent[v]
	}
	return false
}

// RepairCandidate picks the best new parent for a detached node u: the
// in-range sensor v with reachable[v] set (still connected to the
// sink) outside u's own subtree — or the root itself when rootOK and
// in range — minimizing (tree depth, Euclidean distance, index).
// Virtual nodes share their host's radio and are never parents. The
// second result is false when no candidate is in range.
func (t *Topology) RepairCandidate(u int, reachable []bool, rootOK bool) (int, bool) {
	best := -2
	bestDepth, bestDist := math.MaxInt32, math.MaxFloat64
	if rootOK {
		if d := t.Pos[u].Dist(t.Root); d <= t.Range {
			best, bestDepth, bestDist = -1, 0, d
		}
	}
	for v := range t.Pos {
		if v == u || t.IsVirtual(v) || !reachable[v] || t.InSubtree(v, u) {
			continue
		}
		d := t.Pos[u].Dist(t.Pos[v])
		if d > t.Range {
			continue
		}
		if t.Depth[v] < bestDepth || (t.Depth[v] == bestDepth && d < bestDist) {
			best, bestDepth, bestDist = v, t.Depth[v], d
		}
	}
	if best == -2 {
		return -1, false
	}
	return best, true
}

// Reparent moves u (with its whole subtree) under newParent (-1 = the
// root) and re-derives Children, RootChildren, Depth, PostOrder and
// Relay. It rejects moves that would create a cycle (newParent inside
// u's subtree) or hang a sensor off a virtual node.
func (t *Topology) Reparent(u, newParent int) error {
	n := t.N()
	if u < 0 || u >= n {
		return fmt.Errorf("wsn: reparent: node %d out of range", u)
	}
	if newParent < -1 || newParent >= n {
		return fmt.Errorf("wsn: reparent: parent %d out of range", newParent)
	}
	if newParent >= 0 && t.IsVirtual(newParent) {
		return fmt.Errorf("wsn: reparent: node %d is virtual and cannot be a parent", newParent)
	}
	if newParent >= 0 && t.InSubtree(newParent, u) {
		return fmt.Errorf("wsn: reparent: %d → %d would create a cycle", u, newParent)
	}
	t.Parent[u] = newParent
	return t.derive()
}
