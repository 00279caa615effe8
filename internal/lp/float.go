package lp

// Float-equality helpers: the one sanctioned home for == and != on
// floating-point values in this package, enforced by the floatcmp
// analyzer in internal/analysis. Both are exact bit comparisons, and
// deliberately so — the solver skips exactly-zero coefficients for
// sparsity (a tolerance there would silently drop small entries) and
// detects fixed variables by identical bounds. Any comparison that
// should absorb rounding error must spell out its tolerance instead
// (see solveTol and the checks in check.go).

// isZero reports whether x is exactly zero. NaN is not zero.
func isZero(x float64) bool { return x == 0 }

// sameFloat reports whether a and b are exactly equal, with the usual
// IEEE semantics (NaN never equals anything, -0 equals +0).
func sameFloat(a, b float64) bool { return a == b }
