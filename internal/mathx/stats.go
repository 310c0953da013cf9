package mathx

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
