// Package data provides the measurement sources driving the
// simulations: the interpolated-noise synthetic field with sinusoidal
// drift (§5.1.2, §5.1.7 of the paper), a synthetic air-pressure trace
// set standing in for the Live-from-Earth-and-Mars dataset (§5.1.3, see
// DESIGN.md §2), and a CSV loader for real traces.
package data

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Source yields the integer measurement of every node at every round.
// Implementations must be deterministic: repeated calls with the same
// arguments return the same value.
type Source interface {
	// Nodes returns the number of sensor nodes |N|.
	Nodes() int
	// Value returns node's measurement at the given round (round >= 0).
	Value(node, round int) int
	// Fill writes every node's measurement at the given round into
	// dst (len(dst) == Nodes()): dst[i] == Value(i, round), with the
	// work shared by all nodes done once.
	Fill(round int, dst []int)
	// Universe returns the assumed closed integer range [lo, hi] of
	// possible measurements (the universe r the search-based algorithms
	// operate on). Every Value result lies within it.
	Universe() (lo, hi int)
}

// hash64 is a splitmix64-style avalanche over the three coordinates,
// giving each (seed, node, round) cell an independent pseudo-random
// 64-bit value with O(1) random access.
func hash64(seed uint64, node, round int) uint64 {
	x := seed ^ (uint64(node)+1)*0x9E3779B97F4A7C15 ^ (uint64(round)+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// unitFloat maps a hash cell to [0, 1).
func unitFloat(seed uint64, node, round int) float64 {
	return float64(hash64(seed, node, round)>>11) / float64(1<<53)
}

// symmetricFloat maps a hash cell to [-1, 1).
func symmetricFloat(seed uint64, node, round int) float64 {
	return 2*unitFloat(seed, node, round) - 1
}

// Trace is a Source backed by explicit per-node series. Rounds beyond
// the series length wrap around, so a finite trace can drive an
// arbitrarily long lifetime simulation.
type Trace struct {
	series [][]int
	lo, hi int
}

// NewTrace builds a Trace from per-node series, all of equal, nonzero
// length. The universe is set to the observed min/max; it can be
// widened with SetUniverse.
func NewTrace(series [][]int) (*Trace, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("data: no node series")
	}
	rounds := len(series[0])
	if rounds == 0 {
		return nil, fmt.Errorf("data: empty series")
	}
	lo, hi := series[0][0], series[0][0]
	for i, s := range series {
		if len(s) != rounds {
			return nil, fmt.Errorf("data: node %d has %d samples, want %d", i, len(s), rounds)
		}
		for _, v := range s {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return &Trace{series: series, lo: lo, hi: hi}, nil
}

// Nodes implements Source.
func (t *Trace) Nodes() int { return len(t.series) }

// Rounds returns the length of the underlying series before wrapping.
func (t *Trace) Rounds() int { return len(t.series[0]) }

// Value implements Source, wrapping beyond the series length.
func (t *Trace) Value(node, round int) int {
	s := t.series[node]
	return s[round%len(s)]
}

// Fill implements Source.
func (t *Trace) Fill(round int, dst []int) {
	for i, s := range t.series {
		dst[i] = s[round%len(s)]
	}
}

// Universe implements Source.
func (t *Trace) Universe() (lo, hi int) { return t.lo, t.hi }

// SetUniverse widens (or narrows) the assumed universe. It returns an
// error if any observed value would fall outside.
func (t *Trace) SetUniverse(lo, hi int) error {
	if lo > t.lo || hi < t.hi {
		return fmt.Errorf("data: universe [%d,%d] does not cover observed [%d,%d]", lo, hi, t.lo, t.hi)
	}
	t.lo, t.hi = lo, hi
	return nil
}

// FirstValues returns each node's first measurement; the SOM placement
// of the real-dataset setup is trained on these.
func (t *Trace) FirstValues() []int {
	vs := make([]int, len(t.series))
	for i, s := range t.series {
		vs[i] = s[0]
	}
	return vs
}

// Skip returns a view of the trace that keeps only every step-th
// sample, emulating the paper's "skipped samples" sweep (longer sleep
// between rounds, weaker temporal correlation).
func (t *Trace) Skip(step int) (*Trace, error) {
	if step < 1 {
		return nil, fmt.Errorf("data: skip step must be >= 1, got %d", step)
	}
	if step == 1 {
		return t, nil
	}
	out := make([][]int, len(t.series))
	for i, s := range t.series {
		var kept []int
		for j := 0; j < len(s); j += step {
			kept = append(kept, s[j])
		}
		out[i] = kept
	}
	nt, err := NewTrace(out)
	if err != nil {
		return nil, err
	}
	nt.lo, nt.hi = t.lo, t.hi // keep the configured universe
	return nt, nil
}

// ReadTracesCSV parses one node series per line, comma-separated
// integers, ignoring blank lines and lines starting with '#'.
func ReadTracesCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var series [][]int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		row := make([]int, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("data: line %d: %v", lineNo, err)
			}
			row = append(row, v)
		}
		series = append(series, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewTrace(series)
}
