package mathx

// Running accumulates a stream of float64 samples and reports mean
// and extrema without storing the samples. The mean updates
// incrementally, which stays numerically stable for long simulations.
type Running struct {
	n        int
	mean     float64
	min, max float64
}

// Add incorporates one sample.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.mean += (x - r.mean) / float64(r.n)
}

// N returns the number of samples seen.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 with no samples.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest sample, or 0 with no samples.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return 0
	}
	return r.min
}

// Max returns the largest sample, or 0 with no samples.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// CeilDiv returns ⌈a/b⌉ for positive b.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("mathx: CeilDiv with non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
