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
	"slices"
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

	// Relay marks the sensors with at least one non-virtual child:
	// the ones that retransmit a flood. Derived with the fields above.
	Relay []bool
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

// randomPlacement scatters n sensors uniformly in a side×side region.
func randomPlacement(n int, side float64, rng *rand.Rand) []Point {
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
	if err := checkTreeArgs(pos, radioRange); err != nil {
		return nil, err
	}
	return shortestPathTree(pos, root, radioRange, newDiscGraph(pos, radioRange))
}

// checkTreeArgs validates the inputs both tree builders share.
func checkTreeArgs(pos []Point, radioRange float64) error {
	if radioRange <= 0 {
		return fmt.Errorf("wsn: radio range must be positive, got %v", radioRange)
	}
	if len(pos) == 0 {
		return errors.New("wsn: no sensor nodes")
	}
	return nil
}

// shortestPathTree is BuildTree over the disc graph g.
func shortestPathTree(pos []Point, root Point, radioRange float64, g discGraph) (*Topology, error) {
	n := len(pos)
	// Dijkstra from the root. Vertex -1 is the root; dist over sensors.
	const inf = math.MaxFloat64
	dist := make([]float64, n)
	parent := make([]int, n)
	done := make([]bool, n)
	h := distHeap(make([]distEntry, 0, n))
	for i := range dist {
		dist[i] = inf
		parent[i] = -2 // unreached
	}
	for i, p := range pos {
		if d := p.Dist(root); d <= radioRange {
			dist[i] = d
			parent[i] = -1
			h.push(distEntry{d, i})
		}
	}
	for len(h) > 0 {
		// Extract the unfinished sensor with the smallest distance;
		// the heap's order breaks ties on the lower index. An entry
		// is stale once its sensor is done or has a shorter distance.
		e := h.pop()
		u := e.u
		if done[u] || e.d != dist[u] {
			continue
		}
		done[u] = true
		for _, v32 := range g.neighbors(u) {
			v := int(v32)
			if done[v] {
				continue
			}
			nd := dist[u] + pos[u].Dist(pos[v])
			if nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				h.push(distEntry{nd, v})
			} else if nd == dist[v] && parent[v] > u {
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

// distEntry is a tentative distance d of sensor u in Dijkstra's heap.
type distEntry struct {
	d float64
	u int
}

// before orders entries by distance, then by index.
func (a distEntry) before(b distEntry) bool {
	return a.d < b.d || (a.d == b.d && a.u < b.u)
}

// distHeap is a binary min-heap of distEntry by before.
type distHeap []distEntry

func (h *distHeap) push(e distEntry) {
	s := append(*h, e)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *distHeap) pop() distEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// BuildTreeBFS reduces the disc graph to a hop-count shortest-path tree
// (breadth-first from the root, ties broken by shorter edge then lower
// index). Hop-count trees are shallower but route over longer edges
// than the Euclidean SPT; the abl-tree study compares the two.
func BuildTreeBFS(pos []Point, root Point, radioRange float64) (*Topology, error) {
	if err := checkTreeArgs(pos, radioRange); err != nil {
		return nil, err
	}
	return hopCountTree(pos, root, radioRange, newDiscGraph(pos, radioRange))
}

// hopCountTree is BuildTreeBFS over the disc graph g.
func hopCountTree(pos []Point, root Point, radioRange float64, g discGraph) (*Topology, error) {
	n := len(pos)
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
			for _, v32 := range g.neighbors(u) {
				v := int(v32)
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

// assemble builds a Topology over a parent vector.
func assemble(pos []Point, root Point, radioRange float64, parent []int) (*Topology, error) {
	t := &Topology{
		Pos:    append([]Point(nil), pos...),
		Root:   root,
		Range:  radioRange,
		Parent: parent,
	}
	if err := t.derive(); err != nil {
		return nil, err
	}
	return t, nil
}

// derive recomputes every field that follows from Parent and
// VirtualEdge: Children and RootChildren (each in index order), Depth,
// PostOrder and Relay. It is the one traversal behind the tree
// builders, ExpandVirtual and Reparent, and reuses the slices it can.
func (t *Topology) derive() error {
	n := len(t.Parent)
	t.Children = make([][]int, n)
	t.RootChildren = t.RootChildren[:0]
	if len(t.Relay) != n {
		t.Relay = make([]bool, n)
	}
	clear(t.Relay)
	for i, p := range t.Parent {
		if p == -1 {
			t.RootChildren = append(t.RootChildren, i)
			continue
		}
		t.Children[p] = append(t.Children[p], i)
		if !t.IsVirtual(i) {
			t.Relay[p] = true
		}
	}
	if len(t.Depth) != n {
		t.Depth = make([]int, n)
	}
	if t.PostOrder == nil {
		t.PostOrder = make([]int, 0, n)
	}
	t.PostOrder = t.PostOrder[:0]
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
		return fmt.Errorf("wsn: tree reaches %d of %d sensors from the root", len(t.PostOrder), n)
	}
	return nil
}

// BuildConnectedTree repeatedly samples uniform placements until build
// (BuildTree or BuildTreeBFS) connects them to a root placed uniformly
// at random, or attempts run out. Each attempt draws the placement,
// then the root's X and Y. This mirrors the paper's synthetic setup
// where the topology changes between simulation runs.
func BuildConnectedTree(n int, side, radioRange float64, rng *rand.Rand, attempts int,
	build func(pos []Point, root Point, radioRange float64) (*Topology, error)) (*Topology, error) {
	if attempts <= 0 {
		attempts = 50
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		pos := randomPlacement(n, side, rng)
		root := Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		t, err := build(pos, root, radioRange)
		if err == nil {
			return t, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("wsn: no connected placement after %d attempts: %w", attempts, lastErr)
}

// discGraph is the radio disc graph in compressed sparse row form: the
// sensors within radio range of sensor i are nbr[off[i]:off[i+1]], in
// no particular order (neither tree builder depends on it). Indices are
// int32 because the neighbour array is the build's largest temporary.
type discGraph struct {
	off []int
	nbr []int32
}

func (g discGraph) neighbors(i int) []int32 { return g.nbr[g.off[i]:g.off[i+1]] }

// newDiscGraph builds the disc graph over a grid of square cells at
// least one radio range wide, so every neighbour of a sensor lies in
// the 3×3 block of cells around its own. Sensors are counting-sorted by
// cell, and the neighbour array is sized exactly before it is filled,
// which keeps the build at a few flat allocations.
func newDiscGraph(pos []Point, radioRange float64) discGraph {
	n := len(pos)
	g := discGraph{off: make([]int, n+1)}
	if n == 0 {
		return g
	}
	minX, minY, maxX, maxY := pos[0].X, pos[0].Y, pos[0].X, pos[0].Y
	for _, p := range pos {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	// Where the area dwarfs the range, widen the cells so the grid has
	// at most 3n+1 of them: with cell ≥ √(wh/n), w/n and h/n,
	// (w/cell+1)·(h/cell+1) ≤ n + n + n + 1.
	cell := max(radioRange, math.Sqrt(w*h/float64(n)), w/float64(n), h/float64(n))
	// The margin absorbs the rounding of the coordinate differences, so
	// a pair at exactly the radio range never lands two cells apart.
	cell *= 1 + 1e-9
	// Non-finite coordinates or range leave one cell holding everyone.
	cols, rows := 1, 1
	if cell < math.Inf(1) {
		cols, rows = int(w/cell)+1, int(h/cell)+1
	}
	// Counting sort: sensor i sits in cell cellOf[i], and start[c] is
	// where cell c's sensors begin in byCell.
	cellOf := make([]int, n)
	start := make([]int, cols*rows+1)
	for i, p := range pos {
		cx := min(max(int((p.X-minX)/cell), 0), cols-1)
		cy := min(max(int((p.Y-minY)/cell), 0), rows-1)
		cellOf[i] = cy*cols + cx
		start[cellOf[i]+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	// byCell lists the sensors cell by cell and at their positions in
	// the same order, so the scans below read positions contiguously.
	byCell := make([]int32, n)
	at := make([]Point, n)
	next := slices.Clone(start[:len(start)-1])
	for i, c := range cellOf {
		byCell[next[c]], at[next[c]] = int32(i), pos[i]
		next[c]++
	}
	// A pair whose squared distance clears r² by the relative band is
	// decided by it alone: the band is far wider than the rounding of
	// dx²+dy² and of r², so Dist would agree. Pairs inside the band take
	// the exact test. A range whose square is not comfortably a normal
	// float sends every pair to the exact test.
	rr := radioRange * radioRange
	lo, hi := rr*(1-1e-9), rr*(1+1e-9)
	if !(rr >= 0x1p-900 && rr <= 0x1p900) {
		lo, hi = -1, math.Inf(1)
	}
	// scan visits every pair within range once: each sensor against
	// the sensors after it in its own cell, and against its cell's four
	// forward neighbours (+1,0), (−1,+1), (0,+1) and (+1,+1), so every
	// pair of adjacent cells is scanned once. The (+1,0) cell follows
	// the sensor's own in byCell, and the three cells of the next row
	// are contiguous too, so that is two runs of byCell per sensor. The
	// first pass counts degrees; the second fills the exactly sized
	// neighbour array through per-sensor cursors.
	var fill []int
	scan := func() {
		for c := 0; c+1 < len(start); c++ {
			cx, cy := c%cols, c/cols
			sameEnd := start[c+1]
			if cx+1 < cols {
				sameEnd = start[c+2]
			}
			var below [2]int
			if cy+1 < rows {
				below = [2]int{start[c+cols-min(cx, 1)], start[c+cols+1+min(cols-1-cx, 1)]}
			}
			for k := start[c]; k < start[c+1]; k++ {
				p, i := at[k], byCell[k]
				for _, run := range [2][2]int{{k + 1, sameEnd}, below} {
					for m := run[0]; m < run[1]; m++ {
						q := at[m]
						dx, dy := p.X-q.X, p.Y-q.Y
						if d2 := dx*dx + dy*dy; d2 > hi || !(d2 <= lo || p.Dist(q) <= radioRange) {
							continue
						}
						j := byCell[m]
						if fill == nil {
							g.off[i+1]++
							g.off[j+1]++
							continue
						}
						g.nbr[fill[i]], g.nbr[fill[j]] = j, i
						fill[i]++
						fill[j]++
					}
				}
			}
		}
	}
	scan()
	for i := 1; i <= n; i++ {
		g.off[i] += g.off[i-1]
	}
	g.nbr = make([]int32, g.off[n])
	fill = slices.Clone(g.off[:n])
	scan()
	return g
}
