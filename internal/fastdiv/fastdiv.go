// Package fastdiv divides by a run-time invariant integer with a
// multiplication: the divisor's reciprocal is computed once, and each
// division is a 64x64->128-bit multiply, a multiply-subtract and one
// correcting compare (Granlund & Montgomery, "Division by invariant
// integers using multiplication", PLDI 1994; Lemire, Kaser & Kurz,
// "Faster remainder by direct computation", 2019). A 64-bit hardware
// divide costs tens of cycles; the simulator divides by the same few
// values — torus dimensions, a calendar's day width — on every message
// and every event.
package fastdiv

import "math/bits"

// Divisor is a divisor d >= 1 with its reciprocal m = floor((2^64-1)/d).
// The zero value is not a divisor: build one with New.
type Divisor struct {
	d, m uint64
}

// New returns the divisor d, which must be at least 1.
func New(d uint64) Divisor {
	if d == 0 {
		panic("fastdiv: division by zero")
	}
	return Divisor{d: d, m: ^uint64(0) / d}
}

// DivMod returns n / d and n % d, exact for every uint64 n.
//
// n*m / 2^64 falls short of n/d by n*(1+e) / (d*2^64), where
// e = (2^64-1) mod d < d, and n < 2^64 keeps that below 1: q is the
// quotient or one less, r = n - q*d lies in [0, 2d) without overflow,
// and one compare corrects both. Testing (q+1)*d <= n instead would
// overflow near MaxUint64.
func (v Divisor) DivMod(n uint64) (q, r uint64) {
	q, _ = bits.Mul64(n, v.m)
	r = n - q*v.d
	if r >= v.d {
		q++
		r -= v.d
	}
	return q, r
}
