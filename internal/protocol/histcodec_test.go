package protocol

import (
	"encoding/binary"
	"fmt"
)

// The histogram wire codec is a byte realization of the analytical bit
// count msg.Sizes.CompressedHistogramBits charges for histogram
// payloads, kept as FuzzHistogramCodec's reference. A one-byte tag
// selects the dense encoding (every bucket count as a uvarint) or the
// sparse one (pair count, then (index gap, count) uvarint pairs for the
// non-empty buckets), whichever serializes shorter — the same "choose
// the cheaper encoding" idea of [21].
const (
	histDense  = 0x00
	histSparse = 0x01
)

// encodeHistogram serializes non-negative bucket counts into the
// shorter of the dense and sparse encodings.
func encodeHistogram(counts []int) ([]byte, error) {
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("protocol: negative count %d in bucket %d", c, i)
		}
	}
	dense := encodeDense(counts)
	sparse := encodeSparse(counts)
	if len(dense) <= len(sparse) {
		return dense, nil
	}
	return sparse, nil
}

func encodeDense(counts []int) []byte {
	out := []byte{histDense}
	var buf [binary.MaxVarintLen64]byte
	for _, c := range counts {
		out = append(out, buf[:binary.PutUvarint(buf[:], uint64(c))]...)
	}
	return out
}

func encodeSparse(counts []int) []byte {
	out := []byte{histSparse}
	var buf [binary.MaxVarintLen64]byte
	nonEmpty := 0
	for _, c := range counts {
		if c != 0 {
			nonEmpty++
		}
	}
	out = append(out, buf[:binary.PutUvarint(buf[:], uint64(nonEmpty))]...)
	prev := 0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		// Index gaps keep sparse indices small for clustered histograms.
		out = append(out, buf[:binary.PutUvarint(buf[:], uint64(i-prev))]...)
		out = append(out, buf[:binary.PutUvarint(buf[:], uint64(c))]...)
		prev = i
	}
	return out
}

// decodeHistogram reverses encodeHistogram, reconstructing the counts
// of a histogram with totalBuckets buckets. It rejects truncated input,
// trailing garbage, out-of-range indices, and non-canonical encodings
// (a sparse zero count or counts overflowing int).
func decodeHistogram(data []byte, totalBuckets int) ([]int, error) {
	if totalBuckets < 0 {
		return nil, fmt.Errorf("protocol: negative bucket count %d", totalBuckets)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("protocol: empty histogram encoding")
	}
	tag, data := data[0], data[1:]
	counts := make([]int, totalBuckets)
	switch tag {
	case histDense:
		for i := range counts {
			c, n, err := readUvarint(data, "bucket count")
			if err != nil {
				return nil, err
			}
			counts[i], data = c, data[n:]
		}
	case histSparse:
		pairs, n, err := readUvarint(data, "pair count")
		if err != nil {
			return nil, err
		}
		data = data[n:]
		if pairs > totalBuckets {
			return nil, fmt.Errorf("protocol: %d sparse pairs for %d buckets", pairs, totalBuckets)
		}
		idx := 0
		for p := 0; p < pairs; p++ {
			gap, n, err := readUvarint(data, "index gap")
			if err != nil {
				return nil, err
			}
			data = data[n:]
			c, n, err := readUvarint(data, "bucket count")
			if err != nil {
				return nil, err
			}
			data = data[n:]
			if c == 0 {
				return nil, fmt.Errorf("protocol: sparse pair %d has zero count", p)
			}
			if p > 0 && gap == 0 {
				return nil, fmt.Errorf("protocol: sparse pair %d repeats its index", p)
			}
			idx += gap
			if idx >= totalBuckets {
				return nil, fmt.Errorf("protocol: sparse index %d out of %d buckets", idx, totalBuckets)
			}
			counts[idx] = c
		}
	default:
		return nil, fmt.Errorf("protocol: unknown histogram encoding tag %#x", tag)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after histogram", len(data))
	}
	return counts, nil
}

// readUvarint decodes one uvarint that must fit a non-negative int.
func readUvarint(data []byte, what string) (int, int, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("protocol: truncated or overlong %s", what)
	}
	if v > uint64(int(^uint(0)>>1)) {
		return 0, 0, fmt.Errorf("protocol: %s %d overflows int", what, v)
	}
	return int(v), n, nil
}
