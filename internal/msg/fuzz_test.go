package msg

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzFragmentRoundTrip checks that byte-level fragmentation is lossless
// and consistent with the analytical frame count of the framing model:
// the reference fragmenter below realizes Frames on actual bytes.
func FuzzFragmentRoundTrip(f *testing.F) {
	f.Add([]byte(nil), 128*8)
	f.Add([]byte{0x01}, 8)
	f.Add(bytes.Repeat([]byte{0xAB}, 300), 16*8)
	f.Add([]byte("quantile"), 3) // sub-byte payload width → 1-byte frames
	f.Fuzz(func(t *testing.T, data []byte, payloadBits int) {
		s := DefaultSizes()
		// Keep the width positive and small enough that huge inputs do
		// not allocate absurd frame slices.
		if payloadBits < 1 {
			payloadBits = 1
		}
		s.PayloadBits = payloadBits%(4096*8) + 1
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}

		frames := s.fragment(data)
		got, err := s.reassemble(frames)
		if err != nil {
			t.Fatalf("reassemble(fragment(%d bytes)) failed: %v", len(data), err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip changed payload: %d bytes in, %d bytes out", len(data), len(got))
		}

		per := s.frameBytes()
		wantFrames := (len(data) + per - 1) / per
		if len(frames) != wantFrames {
			t.Fatalf("%d bytes over %d-byte frames: got %d frames, want %d", len(data), per, len(frames), wantFrames)
		}
		// When the frame width is byte-aligned, the byte realization
		// must agree with the analytical bit-level frame count.
		if s.PayloadBits%8 == 0 && len(frames) != s.Frames(len(data)*8) {
			t.Fatalf("byte fragmentation used %d frames, bit model says %d", len(frames), s.Frames(len(data)*8))
		}
		for i, fr := range frames {
			if len(fr) == 0 || len(fr) > per {
				t.Fatalf("frame %d has %d bytes, capacity %d", i, len(fr), per)
			}
			if i < len(frames)-1 && len(fr) != per {
				t.Fatalf("non-final frame %d is short: %d of %d bytes", i, len(fr), per)
			}
		}
	})
}

// FuzzReassembleRobust throws arbitrary frame streams at reassemble: it
// must either reject them or return exactly the concatenation, without
// panicking.
func FuzzReassembleRobust(f *testing.F) {
	f.Add([]byte{}, 2, 8)
	f.Add([]byte{1, 2, 3, 4, 5}, 2, 16)
	f.Add([]byte{9, 9, 9}, 1, 24)
	f.Fuzz(func(t *testing.T, raw []byte, cut int, payloadBits int) {
		s := DefaultSizes()
		if payloadBits < 1 {
			payloadBits = 1
		}
		s.PayloadBits = payloadBits%256 + 1
		if cut < 1 {
			cut = 1
		}
		// Slice the raw bytes into pseudo-frames of length cut.
		var frames [][]byte
		for off := 0; off < len(raw); off += cut {
			end := off + cut
			if end > len(raw) {
				end = len(raw)
			}
			frames = append(frames, raw[off:end])
		}
		got, err := s.reassemble(frames)
		if err != nil {
			return
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("accepted stream reassembled to %d bytes, input was %d", len(got), len(raw))
		}
	})
}

// frameBytes returns the per-frame payload capacity in whole bytes used
// by the byte-level fragmentation reference below. Configurations whose
// PayloadBits is not byte-aligned round down, with a minimum of one
// byte per frame.
func (s Sizes) frameBytes() int {
	b := s.PayloadBits / 8
	if b < 1 {
		b = 1
	}
	return b
}

// fragment splits a logical payload into link-layer frame payloads of
// at most frameBytes() bytes each. All frames but the last are full —
// the canonical fragmentation reassemble expects. Empty payloads need
// no frames.
func (s Sizes) fragment(data []byte) [][]byte {
	if len(data) == 0 {
		return nil
	}
	per := s.frameBytes()
	frames := make([][]byte, 0, (len(data)+per-1)/per)
	for off := 0; off < len(data); off += per {
		end := off + per
		if end > len(data) {
			end = len(data)
		}
		frames = append(frames, data[off:end:end])
	}
	return frames
}

// reassemble reverses fragment: it concatenates frame payloads back
// into the logical payload, rejecting streams no canonical
// fragmentation can have produced (empty frames, oversized frames, or a
// non-final frame that is not full).
func (s Sizes) reassemble(frames [][]byte) ([]byte, error) {
	per := s.frameBytes()
	total := 0
	for i, f := range frames {
		if len(f) == 0 {
			return nil, fmt.Errorf("msg: frame %d is empty", i)
		}
		if len(f) > per {
			return nil, fmt.Errorf("msg: frame %d carries %d bytes, capacity %d", i, len(f), per)
		}
		if len(f) < per && i != len(frames)-1 {
			return nil, fmt.Errorf("msg: non-final frame %d is short (%d of %d bytes)", i, len(f), per)
		}
		total += len(f)
	}
	out := make([]byte, 0, total)
	for _, f := range frames {
		out = append(out, f...)
	}
	return out, nil
}
