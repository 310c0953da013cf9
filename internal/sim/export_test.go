package sim

import "slices"

// SetFullWalk makes rt's Holders return every sensor, so every ranged
// convergecast on rt walks the whole tree: the reference twin of the
// selective walk.
func SetFullWalk(rt *Runtime) { rt.allHolders = true }

// NextDraw consumes and returns the next draw of rt's loss RNG.
func NextDraw(rt *Runtime) int64 { return rt.rng.Int63() }

// VisitMaskClear reports whether rt's convergecast visit mask is
// all-false, as it must be between calls.
func VisitMaskClear(rt *Runtime) bool { return !slices.Contains(rt.flags, true) }
