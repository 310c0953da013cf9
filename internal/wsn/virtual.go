package wsn

import "fmt"

// ExpandVirtual models nodes that take valuesPerNode measurements per
// round, using the paper's reduction (§2): each real node gains
// valuesPerNode−1 artificial leaf children co-located with it, whose
// links are intra-node and therefore free. Real nodes keep their ids
// 0..N−1; the artificial child j (1-based) of real node i gets id
// N + i·(valuesPerNode−1) + (j−1).
func ExpandVirtual(t *Topology, valuesPerNode int) (*Topology, error) {
	if valuesPerNode < 1 {
		return nil, fmt.Errorf("wsn: values per node %d must be >= 1", valuesPerNode)
	}
	if valuesPerNode == 1 {
		return t, nil
	}
	if t.VirtualEdge != nil {
		return nil, fmt.Errorf("wsn: topology already has virtual nodes")
	}
	n := t.N()
	extra := valuesPerNode - 1
	total := n * valuesPerNode

	out := &Topology{
		Pos:         make([]Point, total),
		Root:        t.Root,
		Range:       t.Range,
		Parent:      make([]int, total),
		VirtualEdge: make([]bool, total),
	}
	copy(out.Pos, t.Pos)
	copy(out.Parent, t.Parent)
	for i := 0; i < n; i++ {
		for j := 0; j < extra; j++ {
			id := n + i*extra + j
			out.Pos[id] = t.Pos[i]
			out.Parent[id] = i
			out.VirtualEdge[id] = true
		}
	}
	// Artificial ids follow every real one, so each real node's
	// children derive as its real children, then its artificial ones.
	if err := out.derive(); err != nil {
		return nil, err
	}
	return out, nil
}
