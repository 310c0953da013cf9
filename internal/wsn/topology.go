// Package wsn models the physical and logical structure of the sensor
// network: node placement in a rectangular region, the radio-range disc
// graph G_p, and its reduction to a shortest-path routing tree G_l
// rooted at the sink, exactly as in §2 and §5.1.1 of the paper.
package wsn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Point is a position in the deployment region, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// ErrDisconnected is returned when some sensor cannot reach the root
// over multi-hop links of the given radio range.
var ErrDisconnected = errors.New("wsn: network is not connected to the root")

// Topology is the routing tree of a deployment. Sensor nodes are
// identified by dense indices 0..N-1; the root (sink) is the virtual
// node -1 and is not a sensor.
type Topology struct {
	Pos   []Point // sensor positions
	Root  Point   // sink position
	Range float64 // radio range ρ in meters

	Parent       []int   // Parent[i] is i's tree parent, -1 meaning the root
	Children     [][]int // Children[i] lists i's tree children
	RootChildren []int   // sensors whose parent is the root
	Depth        []int   // hop distance from the root (root's children have depth 1)

	// PostOrder lists all sensors in depth-first post-order: every node
	// appears after all of its children, and every subtree is one
	// contiguous run ending in its root. Iterating it drives a
	// convergecast, whose inbox stack relies on the contiguity.
	PostOrder []int

	// VirtualEdge marks nodes whose link to their parent is intra-node:
	// the node is an artificial child modeling an extra measurement of
	// its parent (§2 of the paper), so its transmissions are free and
	// it shares its host's radio. Nil when no virtual nodes exist.
	VirtualEdge []bool
}

// IsVirtual reports whether node i is an artificial (intra-node) child.
func (t *Topology) IsVirtual(i int) bool {
	return t.VirtualEdge != nil && t.VirtualEdge[i]
}

// N returns the number of sensor nodes (the root excluded).
func (t *Topology) N() int { return len(t.Pos) }

// MaxDepth returns the deepest hop distance in the tree.
func (t *Topology) MaxDepth() int {
	d := 0
	for _, v := range t.Depth {
		if v > d {
			d = v
		}
	}
	return d
}

// RandomPlacement scatters n sensors uniformly in a side×side region.
func RandomPlacement(n int, side float64, rng *rand.Rand) []Point {
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return pos
}

// BuildTree reduces the radio disc graph over the given positions to a
// shortest-path tree rooted at root, using Euclidean edge lengths and
// deterministic tie-breaking by node index. It returns ErrDisconnected
// if any sensor is unreachable.
func BuildTree(pos []Point, root Point, radioRange float64) (*Topology, error) {
	if radioRange <= 0 {
		return nil, fmt.Errorf("wsn: radio range must be positive, got %v", radioRange)
	}
	n := len(pos)
	if n == 0 {
		return nil, errors.New("wsn: no sensor nodes")
	}

	adj := neighborLists(pos, radioRange)

	// Dijkstra from the root. Vertex -1 is the root; dist over sensors.
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
		// Extract the unfinished sensor with the smallest distance;
		// ties break on the lower index for determinism.
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
		for _, v := range adj[u] {
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

// BuildTreeBFS reduces the disc graph to a hop-count shortest-path tree
// (breadth-first from the root, ties broken by shorter edge then lower
// index). Hop-count trees are shallower but route over longer edges
// than the Euclidean SPT; the abl-tree study compares the two.
func BuildTreeBFS(pos []Point, root Point, radioRange float64) (*Topology, error) {
	if radioRange <= 0 {
		return nil, fmt.Errorf("wsn: radio range must be positive, got %v", radioRange)
	}
	n := len(pos)
	if n == 0 {
		return nil, errors.New("wsn: no sensor nodes")
	}
	adj := neighborLists(pos, radioRange)
	parent := make([]int, n)
	depth := make([]int, n)
	for i := range parent {
		parent[i] = -2
	}
	var frontier []int
	for i, p := range pos {
		if p.Dist(root) <= radioRange {
			parent[i] = -1
			depth[i] = 1
			frontier = append(frontier, i)
		}
	}
	sort.Ints(frontier)
	for len(frontier) > 0 {
		var next []int
		for _, u := range frontier {
			for _, v := range adj[u] {
				if parent[v] != -2 {
					// Prefer the closer parent among same-depth options.
					if depth[v] == depth[u]+1 && parent[v] >= 0 &&
						pos[v].Dist(pos[u]) < pos[v].Dist(pos[parent[v]]) {
						parent[v] = u
					}
					continue
				}
				parent[v] = u
				depth[v] = depth[u] + 1
				next = append(next, v)
			}
		}
		sort.Ints(next)
		frontier = next
	}
	for i := 0; i < n; i++ {
		if parent[i] == -2 {
			return nil, fmt.Errorf("%w: node %d at (%.1f, %.1f)", ErrDisconnected, i, pos[i].X, pos[i].Y)
		}
	}
	return assemble(pos, root, radioRange, parent)
}

// assemble fills the derived Topology fields from a parent vector.
func assemble(pos []Point, root Point, radioRange float64, parent []int) (*Topology, error) {
	n := len(pos)
	t := &Topology{
		Pos:      append([]Point(nil), pos...),
		Root:     root,
		Range:    radioRange,
		Parent:   parent,
		Children: make([][]int, n),
		Depth:    make([]int, n),
	}
	for i, p := range parent {
		if p == -1 {
			t.RootChildren = append(t.RootChildren, i)
		} else {
			t.Children[p] = append(t.Children[p], i)
		}
	}
	t.PostOrder = make([]int, 0, n)
	var visit func(u, d int)
	visit = func(u, d int) {
		t.Depth[u] = d
		for _, c := range t.Children[u] {
			visit(c, d+1)
		}
		t.PostOrder = append(t.PostOrder, u)
	}
	for _, c := range t.RootChildren {
		visit(c, 1)
	}
	if len(t.PostOrder) != n {
		return nil, errors.New("wsn: internal error: tree does not span all sensors")
	}
	return t, nil
}

// BuildConnectedTree repeatedly samples uniform placements until the
// resulting disc graph is connected to a root placed uniformly at
// random, or attempts run out. This mirrors the paper's synthetic setup
// where the topology changes between simulation runs.
func BuildConnectedTree(n int, side, radioRange float64, rng *rand.Rand, attempts int) (*Topology, error) {
	if attempts <= 0 {
		attempts = 50
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		pos := RandomPlacement(n, side, rng)
		root := Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		t, err := BuildTree(pos, root, radioRange)
		if err == nil {
			return t, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("wsn: no connected placement after %d attempts: %w", attempts, lastErr)
}

// BuildTreeWithRootAt builds a tree using one of the given positions as
// the sink location (the sensor keeps existing; the sink is co-located).
// This mirrors the real-dataset setup where runs differ only in which
// root is selected.
func BuildTreeWithRootAt(pos []Point, rootIdx int, radioRange float64) (*Topology, error) {
	if rootIdx < 0 || rootIdx >= len(pos) {
		return nil, fmt.Errorf("wsn: root index %d out of range", rootIdx)
	}
	return BuildTree(pos, pos[rootIdx], radioRange)
}

// neighborLists returns, for every sensor, the indices of all sensors
// within the radio range, using grid binning to avoid the quadratic
// distance matrix for large deployments.
func neighborLists(pos []Point, radioRange float64) [][]int {
	n := len(pos)
	adj := make([][]int, n)
	if n == 0 {
		return adj
	}
	minX, minY := pos[0].X, pos[0].Y
	for _, p := range pos {
		if p.X < minX {
			minX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
	}
	cell := radioRange
	type key struct{ cx, cy int }
	grid := make(map[key][]int, n)
	at := func(p Point) key {
		return key{int((p.X - minX) / cell), int((p.Y - minY) / cell)}
	}
	for i, p := range pos {
		grid[at(p)] = append(grid[at(p)], i)
	}
	for i, p := range pos {
		k := at(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[key{k.cx + dx, k.cy + dy}] {
					if j != i && p.Dist(pos[j]) <= radioRange {
						adj[i] = append(adj[i], j)
					}
				}
			}
		}
	}
	return adj
}
