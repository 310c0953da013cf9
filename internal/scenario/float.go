package scenario

import (
	"math"
	"math/big"
	"math/bits"
)

// The power table of eiselLemire covers the decimal exponents
// [powMin, powMax]: the magnitudes recordings carry. A literal outside
// it falls back to strconv.
const powMin, powMax = -64, 64

// pow10Mantissa[q-powMin] holds 10^q as a 128-bit mantissa, normalized
// so its top bit is set and rounded down, as {low, high} 64-bit
// halves. It is computed exactly once, with math/big.
var pow10Mantissa = func() (t [powMax - powMin + 1][2]uint64) {
	ten := big.NewInt(10)
	for q := powMin; q <= powMax; q++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(q, -q))), nil)
		m := new(big.Int).Set(p)
		if q < 0 {
			// floor(2^(len+128) / 10^-q) has 128 or 129 bits.
			m.Lsh(big.NewInt(1), uint(p.BitLen()+128))
			m.Quo(m, p)
		}
		if s := m.BitLen() - 128; s > 0 {
			m.Rsh(m, uint(s))
		} else {
			m.Lsh(m, uint(-s))
		}
		lo := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		t[q-powMin] = [2]uint64{lo, m.Rsh(m, 64).Uint64()}
	}
	return t
}()

// eiselLemire converts the decimal man·10^exp10 to the nearest float64
// with the Eisel-Lemire algorithm: one 64×128-bit product with the
// table's mantissa of 10^exp10 gives the result's bits unless they lie
// too close to a rounding boundary to be certain. ok is false then, and
// for an exponent outside the table or a result outside the normal
// float64 range; the caller falls back to strconv.ParseFloat, whose
// result it otherwise equals bit for bit.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < powMin || exp10 > powMax {
		return 0, false
	}
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	// 217706/2^16 approximates log2(10): the binary exponent of 10^exp10.
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	pow := &pow10Mantissa[exp10-powMin]
	xHi, xLo := bits.Mul64(man, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		// The truncated product may be off by a carry: widen it with
		// the low half of the power.
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		// Exactly halfway between two floats: ties need the exact value.
		return 0, false
	}
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 {
		// Subnormal, zero, infinite or NaN exponent.
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}
