package protocol

import (
	"testing"
)

// FuzzHistogramCodec checks that the byte-level histogram codec is a
// lossless round trip for arbitrary non-negative count vectors, and that
// decodeHistogram never panics or silently mis-decodes arbitrary bytes.
func FuzzHistogramCodec(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{0, 0, 0, 5}, 4)
	f.Add([]byte{255, 1}, 2)
	f.Add([]byte{0x01, 0x02, 0x03}, 16)
	f.Fuzz(func(t *testing.T, raw []byte, buckets int) {
		buckets %= 512
		if buckets < 0 {
			buckets = -buckets
		}

		// Direction 1: encode a derived count vector, decode, compare.
		counts := make([]int, buckets)
		for i := range counts {
			if i < len(raw) {
				counts[i] = int(raw[i])
			}
		}
		enc, err := encodeHistogram(counts)
		if err != nil {
			t.Fatalf("encodeHistogram(%v): %v", counts, err)
		}
		dec, err := decodeHistogram(enc, buckets)
		if err != nil {
			t.Fatalf("decodeHistogram round trip failed: %v", err)
		}
		for i := range counts {
			if dec[i] != counts[i] {
				t.Fatalf("bucket %d: decoded %d, encoded %d", i, dec[i], counts[i])
			}
		}

		// Direction 2: arbitrary bytes must decode cleanly or error —
		// and anything accepted must re-encode to a valid histogram.
		if got, err := decodeHistogram(raw, buckets); err == nil {
			if len(got) != buckets {
				t.Fatalf("decode of raw bytes returned %d buckets, want %d", len(got), buckets)
			}
			if _, err := encodeHistogram(got); err != nil {
				t.Fatalf("decoded histogram does not re-encode: %v", err)
			}
		}
	})
}

// FuzzBucketsIndex checks the bucket partition invariants: every value in
// range lands in exactly one bucket whose bounds contain it, bucket
// bounds tile [Lo, Hi) without gaps, and out-of-range values are
// rejected.
func FuzzBucketsIndex(f *testing.F) {
	f.Add(0, 100, 10, 55)
	f.Add(-50, 50, 7, -50)
	f.Add(3, 4, 16, 3)
	f.Fuzz(func(t *testing.T, lo, hi, b, v int) {
		// Bound the range so width arithmetic stays far from overflow.
		const lim = 1 << 20
		if lo < -lim || lo > lim || hi < -lim || hi > lim {
			return
		}
		b = b%64 + 1
		if b < 1 {
			b += 64
		}
		bu, err := NewBuckets(lo, hi, b)
		if err != nil {
			if hi > lo {
				t.Fatalf("NewBuckets(%d,%d,%d) rejected a valid range: %v", lo, hi, b, err)
			}
			return
		}

		eff := bu.Effective()
		if eff < 1 || eff > b {
			t.Fatalf("Effective() = %d outside [1,%d]", eff, b)
		}
		// Bounds must tile [Lo, Hi) exactly.
		prev := lo
		for i := 0; i < eff; i++ {
			blo, bhi := bu.Bounds(i)
			if blo != prev || bhi <= blo {
				t.Fatalf("bucket %d bounds [%d,%d) break the tiling at %d", i, blo, bhi, prev)
			}
			prev = bhi
		}
		if prev != hi {
			t.Fatalf("buckets tile up to %d, range ends at %d", prev, hi)
		}

		idx, ok := bu.Index(v)
		if inRange := v >= lo && v < hi; ok != inRange {
			t.Fatalf("Index(%d) in-range=%v, want %v", v, ok, inRange)
		}
		if ok {
			if idx < 0 || idx >= eff {
				t.Fatalf("Index(%d) = %d outside [0,%d)", v, idx, eff)
			}
			blo, bhi := bu.Bounds(idx)
			if v < blo || v >= bhi {
				t.Fatalf("value %d assigned to bucket %d = [%d,%d)", v, idx, blo, bhi)
			}
		}
	})
}
