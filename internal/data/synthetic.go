package data

import (
	"fmt"
	"math"

	"wsnq/internal/wsn"
)

// NoiseField is a procedural stand-in for the paper's interpolated-noise
// image: a coarse lattice of pseudo-random levels, bilinearly
// interpolated, yielding spatially correlated values in [0, 1).
type NoiseField struct {
	seed    uint64
	lattice int // lattice cells per side
}

// newNoiseField creates a field with the given lattice resolution
// (the paper's image has 256 distinct grey levels; 8-16 lattice cells
// produce comparable large-scale structure).
func newNoiseField(seed int64, lattice int) (*NoiseField, error) {
	if lattice < 2 {
		return nil, fmt.Errorf("data: noise lattice must be >= 2, got %d", lattice)
	}
	return &NoiseField{seed: uint64(seed), lattice: lattice}, nil
}

// At samples the field at normalized coordinates u, v in [0, 1].
func (f *NoiseField) At(u, v float64) float64 {
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	if v < 0 {
		v = 0
	}
	if v >= 1 {
		v = math.Nextafter(1, 0)
	}
	fx := u * float64(f.lattice)
	fy := v * float64(f.lattice)
	x0, y0 := int(fx), int(fy)
	tx, ty := fx-float64(x0), fy-float64(y0)
	// Smoothstep for C1-continuous interpolation.
	tx = tx * tx * (3 - 2*tx)
	ty = ty * ty * (3 - 2*ty)
	g := func(x, y int) float64 { return unitFloat(f.seed, x, y) }
	a := g(x0, y0)*(1-tx) + g(x0+1, y0)*tx
	b := g(x0, y0+1)*(1-tx) + g(x0+1, y0+1)*tx
	return a*(1-ty) + b*ty
}

// SyntheticConfig parameterizes the synthetic dataset of §5.1.2/§5.1.7.
type SyntheticConfig struct {
	Seed int64

	// Universe is the closed integer range [0, Universe-1] values are
	// scaled to (the τ = r_max - r_min + 1 of Table 1). Default 65536.
	Universe int

	// Period is the sinusoid period in rounds (the τ of Table 2).
	Period int

	// NoisePct is ψ: per-node uniform noise, in percent of the
	// sinusoid's peak-to-peak amplitude.
	NoisePct float64

	// AmplitudeFrac is the sinusoid amplitude as a fraction of the
	// universe. Default 0.1.
	AmplitudeFrac float64

	// SpreadFrac concentrates the initial value distribution: base
	// levels are mapped into the central SpreadFrac fraction of the
	// universe. 1 (the default) spreads them over the whole range;
	// small values produce the dense-around-the-median regime of the
	// pressure dataset, where many measurements share few distinct
	// values.
	SpreadFrac float64

	// Lattice is the noise-field resolution. Default 12.
	Lattice int
}

func (c *SyntheticConfig) applyDefaults() {
	if c.Universe == 0 {
		c.Universe = 1 << 16
	}
	if c.AmplitudeFrac == 0 {
		c.AmplitudeFrac = 0.1
	}
	if c.SpreadFrac == 0 {
		c.SpreadFrac = 1
	}
	if c.Lattice == 0 {
		c.Lattice = 12
	}
}

// Validate reports configuration errors.
func (c SyntheticConfig) Validate() error {
	c.applyDefaults()
	if c.Universe < 4 {
		return fmt.Errorf("data: universe too small: %d", c.Universe)
	}
	if c.Period < 1 {
		return fmt.Errorf("data: period must be >= 1 round, got %d", c.Period)
	}
	if c.NoisePct < 0 || c.NoisePct > 100 {
		return fmt.Errorf("data: noise percentage %v out of [0,100]", c.NoisePct)
	}
	if c.AmplitudeFrac < 0 || c.AmplitudeFrac > 0.5 {
		return fmt.Errorf("data: amplitude fraction %v out of [0,0.5]", c.AmplitudeFrac)
	}
	if c.SpreadFrac < 0 || c.SpreadFrac > 1 {
		return fmt.Errorf("data: spread fraction %v out of (0,1]", c.SpreadFrac)
	}
	return nil
}

// Synthetic is the paper's synthetic Source: each node starts at the
// noise-field level under its position (plus sub-level jitter), then
// drifts with a global sinusoid of the configured period while per-node
// noise of ψ percent perturbs individual measurements.
type Synthetic struct {
	cfg  SyntheticConfig
	base []float64 // per-node initial level in [0,1)
}

// NewSynthetic builds the source for sensors at the given positions
// within a side×side region.
func NewSynthetic(cfg SyntheticConfig, pos []wsn.Point, side float64) (*Synthetic, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pos) == 0 {
		return nil, fmt.Errorf("data: no node positions")
	}
	if side <= 0 {
		return nil, fmt.Errorf("data: region side must be positive, got %v", side)
	}
	field, err := newNoiseField(cfg.Seed, cfg.Lattice)
	if err != nil {
		return nil, err
	}
	s := &Synthetic{cfg: cfg, base: make([]float64, len(pos))}
	for i, p := range pos {
		b := field.At(p.X/side, p.Y/side)
		// Sub-level jitter below 1/255 of the range, as in the paper,
		// breaking the 256-level quantization of the source image.
		b += (unitFloat(uint64(cfg.Seed)^0xA5A5, i, -1) - 0.5) / 255
		if b < 0 {
			b = 0
		}
		if b >= 1 {
			b = math.Nextafter(1, 0)
		}
		// Concentrate the distribution into the central SpreadFrac of
		// the universe (density control, see SpreadFrac).
		b = 0.5 + (b-0.5)*cfg.SpreadFrac
		s.base[i] = b
	}
	return s, nil
}

// Nodes implements Source.
func (s *Synthetic) Nodes() int { return len(s.base) }

// Universe implements Source.
func (s *Synthetic) Universe() (lo, hi int) { return 0, s.cfg.Universe - 1 }

// Value implements Source.
func (s *Synthetic) Value(node, round int) int { return s.at(node, round, s.drift(round)) }

// Fill implements Source: the drift term is one per round, so it is
// computed once for all nodes.
func (s *Synthetic) Fill(round int, dst []int) {
	d := s.drift(round)
	for i := range s.base {
		dst[i] = s.at(i, round, d)
	}
}

// drift returns the global sinusoid's offset at the given round. The
// conversion keeps the product rounded on its own, so no platform
// fuses it into at's sum and Value and Fill agree bit for bit.
func (s *Synthetic) drift(round int) float64 {
	amp := s.cfg.AmplitudeFrac * float64(s.cfg.Universe-1)
	phase := 2 * math.Pi * float64(round) / float64(s.cfg.Period)
	return float64(amp * math.Sin(phase))
}

// at is node's measurement at the given round, with that round's drift.
func (s *Synthetic) at(node, round int, drift float64) int {
	r := float64(s.cfg.Universe - 1)
	amp := s.cfg.AmplitudeFrac * r
	v := s.base[node]*r + drift
	// ψ percent of the peak-to-peak amplitude, uniform and symmetric.
	noiseMag := s.cfg.NoisePct / 100 * 2 * amp
	v += noiseMag * symmetricFloat(uint64(s.cfg.Seed)^0x5A5A, node, round) / 2
	iv := int(math.Round(v))
	if iv < 0 {
		iv = 0
	}
	if iv > s.cfg.Universe-1 {
		iv = s.cfg.Universe - 1
	}
	return iv
}
