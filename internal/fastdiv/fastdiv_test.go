package fastdiv

import (
	"math"
	"math/rand/v2"
	"testing"
)

// check holds DivMod to the hardware divide for one pair.
func check(t *testing.T, v Divisor, d, n uint64) {
	t.Helper()
	if q, r := v.DivMod(n); q != n/d || r != n%d {
		t.Fatalf("%d divmod %d = (%d, %d), want (%d, %d)", n, d, q, r, n/d, n%d)
	}
}

// edges are the divisors and dividends where a reciprocal is most
// likely to be off by one: powers of two and their neighbours, the
// 32-bit boundary and the top of the range.
var edges = []uint64{
	1, 2, 3, 7, 10, 47, 1 << 32, 1<<32 - 1, 1<<32 + 1,
	1 << 63, 1<<63 - 1, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64,
}

// TestDivModExact checks every dividend below 2^16 against a range of
// small divisors and a spread of large ones, and every edge dividend
// against every edge divisor.
func TestDivModExact(t *testing.T) {
	divisors := []uint64{}
	for d := uint64(1); d <= 300; d++ {
		divisors = append(divisors, d)
	}
	divisors = append(divisors, 1000, 1024, 2209, 65535, 65536, 65537, 103823, 1e6, 1e9+7)
	divisors = append(divisors, edges...)
	for _, d := range divisors {
		v := New(d)
		for n := uint64(0); n < 1<<16; n++ {
			if q, r := v.DivMod(n); q != n/d || r != n%d {
				check(t, v, d, n)
			}
		}
		for _, n := range edges {
			check(t, v, d, n)
			check(t, v, d, n*d) // exact multiples, wrapped or not
			check(t, v, d, n*d-1)
		}
	}
}

// TestDivModRandom checks random divisors of every magnitude against
// random dividends and the dividends next to their multiples.
func TestDivModRandom(t *testing.T) {
	src := rand.New(rand.NewPCG(44, 1))
	for i := 0; i < 2000; i++ {
		d := src.Uint64() >> src.UintN(64)
		if d == 0 {
			d = 1
		}
		v := New(d)
		for j := 0; j < 200; j++ {
			n := src.Uint64() >> src.UintN(64)
			check(t, v, d, n)
			k := n / d * d
			check(t, v, d, k)
			if k > 0 {
				check(t, v, d, k-1)
			}
		}
		check(t, v, d, math.MaxUint64)
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func BenchmarkDivMod(b *testing.B) {
	v := New(47)
	var s uint64
	for i := 0; i < b.N; i++ {
		q, r := v.DivMod(uint64(i))
		s += q + r
	}
	sink = s
}

var sink uint64
