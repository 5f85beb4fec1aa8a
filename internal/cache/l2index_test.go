package cache

import (
	"testing"

	"malec/internal/mem"
	"malec/internal/rng"
)

// scanFind is the reference L2 residency check: a tag scan over the ways of
// pa's set, returning the flat slot holding its line or -1.
func scanFind(l *L2, pa mem.Addr) int {
	base := l.set(pa) * l.ways
	target := pa.LineAddr()
	for w := 0; w < l.ways; w++ {
		if ln := l.lines[base+w]; ln.Valid && ln.PLine == target {
			return base + w
		}
	}
	return -1
}

// TestL2IndexedMatchesScanRandomized drives an L2 through a randomized
// access/writeback stream over a footprint several times the capacity
// (evictions and re-fills throughout). Before and after every operation the
// index answer for the accessed line and for a few random probe lines must
// equal the set scan on the same instance, and each access's hit/miss must
// match the scan's prediction.
func TestL2IndexedMatchesScanRandomized(t *testing.T) {
	l := NewL2Custom(1<<14, 4, 12) // small: 16 KB, 64 sets
	drv := rng.New(23)
	check := func(op int, pa mem.Addr) {
		t.Helper()
		if got, want := l.find(pa.LineAddr()), scanFind(l, pa); got != want {
			t.Fatalf("op %d: find(%v) = %d, set scan says %d", op, pa, got, want)
		}
	}
	for op := 0; op < 100000; op++ {
		pa := mem.Addr(drv.Intn(1 << 18)) // 4x capacity footprint
		if drv.Intn(8) == 0 {
			l.Writeback(pa)
		} else {
			want := scanFind(l, pa) >= 0
			if hit := l.Access(pa); hit != want {
				t.Fatalf("op %d: Access(%v) hit=%v, set scan says %v", op, pa, hit, want)
			}
		}
		check(op, pa)
		for i := 0; i < 4; i++ {
			check(op, mem.Addr(drv.Intn(1<<18)))
		}
	}
}
