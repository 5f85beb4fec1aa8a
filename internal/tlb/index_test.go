package tlb

import (
	"testing"

	"malec/internal/mem"
	"malec/internal/rng"
)

// scanV is the reference forward lookup: the lowest valid entry index
// holding virtual page v, or -1, by a linear scan of the entry array.
func scanV(t *TLB, v mem.PageID) int {
	for i, e := range t.entries {
		if e.Valid && e.VPage == v {
			return i
		}
	}
	return -1
}

// scanP is scanV for physical pages.
func scanP(t *TLB, p mem.PageID) int {
	for i, e := range t.entries {
		if e.Valid && e.PPage == p {
			return i
		}
	}
	return -1
}

// scanFree is the reference fill choice: the lowest invalid entry index, or
// -1 when every entry is valid.
func scanFree(t *TLB) int {
	for i, e := range t.entries {
		if !e.Valid {
			return i
		}
	}
	return -1
}

// checkIndexesMatchScan requires every index answer of t to equal the scan
// answer on the same instance, for every page of the space.
func checkIndexesMatchScan(t *testing.T, tl *TLB, op, pageSpace int) {
	t.Helper()
	for pg := mem.PageID(0); pg < mem.PageID(pageSpace); pg++ {
		if got, want := tl.findV(pg), scanV(tl, pg); got != want {
			t.Fatalf("op %d: findV(%d) = %d, scan says %d", op, pg, got, want)
		}
		if got, want := tl.findP(pg), scanP(tl, pg); got != want {
			t.Fatalf("op %d: findP(%d) = %d, scan says %d", op, pg, got, want)
		}
	}
	if got, want := tl.firstFree(), scanFree(tl); got != want {
		t.Fatalf("op %d: firstFree = %d, scan says %d", op, got, want)
	}
}

// TestIndexedMatchesScanRandomized drives a TLB through a randomized
// insert/lookup/reverse-lookup/invalidate workload and, after every
// operation, checks the VPage/PPage chain indexes and the free mask against
// linear scans of the same entry array. The page space is kept small so
// evictions, reinserts and duplicate physical pages (legal through the
// public API) all occur.
func TestIndexedMatchesScanRandomized(t *testing.T) {
	for _, policy := range []string{"lru", "fifo", "second-chance", "random"} {
		t.Run(policy, func(t *testing.T) {
			const size = 8
			const pageSpace = 24
			const ops = 20000
			tl := New("idx", size, NewPolicy(policy, size, rng.New(7)))
			drv := rng.New(99)
			for op := 0; op < ops; op++ {
				v := mem.PageID(drv.Intn(pageSpace))
				p := mem.PageID(drv.Intn(pageSpace)) // duplicates PPages on purpose
				switch drv.Intn(6) {
				case 0, 1:
					want := scanV(tl, v)
					if i, _, hit := tl.Lookup(v); i != want || hit != (want >= 0) {
						t.Fatalf("op %d: Lookup(%d) = (%d,%v), scan says %d", op, v, i, hit, want)
					}
				case 2:
					want := scanFree(tl)
					if i := tl.Insert(v, p); want >= 0 && i != want {
						t.Fatalf("op %d: Insert(%d,%d) filled %d, scan says %d", op, v, p, i, want)
					}
				case 3:
					want := scanP(tl, p)
					if i, _, hit := tl.ReverseLookup(p); i != want || hit != (want >= 0) {
						t.Fatalf("op %d: ReverseLookup(%d) = (%d,%v), scan says %d", op, p, i, hit, want)
					}
				case 4:
					want := scanV(tl, v)
					if i, _, hit := tl.Probe(v); i != want || hit != (want >= 0) {
						t.Fatalf("op %d: Probe(%d) = (%d,%v), scan says %d", op, v, i, hit, want)
					}
				case 5:
					tl.Invalidate(v)
				}
				checkIndexesMatchScan(t, tl, op, pageSpace)
			}
		})
	}
}

// TestPageTableFlatStorageMatchesReference cross-checks the open-addressed
// page-table storage against a plain Go map reference for a large, gappy
// virtual page set: identical frames, stability, injectivity.
func TestPageTableFlatStorageMatchesReference(t *testing.T) {
	pt := NewPageTable()
	ref := map[mem.PageID]mem.PageID{}
	frames := map[mem.PageID]mem.PageID{}
	drv := rng.New(11)
	for i := 0; i < 20000; i++ {
		v := mem.PageID(drv.Intn(1 << 16))
		p := pt.Translate(v)
		if prev, ok := ref[v]; ok {
			if prev != p {
				t.Fatalf("translation for %d unstable: %d then %d", v, prev, p)
			}
			continue
		}
		if owner, taken := frames[p]; taken {
			t.Fatalf("frame %d assigned to both %d and %d", p, owner, v)
		}
		ref[v] = p
		frames[p] = v
	}
	if pt.Pages() != len(ref) {
		t.Fatalf("Pages() = %d, want %d", pt.Pages(), len(ref))
	}
}

// BenchmarkTLBLookup measures forward lookups at a paper-sized 64-entry
// TLB on a resident working set (hits, the hot-path common case).
func BenchmarkTLBLookup(b *testing.B) {
	const size = 64
	tl := New("t", size, NewPolicy("random", size, rng.New(1)))
	for v := mem.PageID(0); v < size; v++ {
		tl.Insert(v, 1000+v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, hit := tl.Lookup(mem.PageID(i % size)); !hit {
			b.Fatal("resident page missed")
		}
	}
}

// BenchmarkTLBReverseLookup measures the physical-tag lookups the
// way-table maintenance path performs on every L1 fill/eviction.
func BenchmarkTLBReverseLookup(b *testing.B) {
	const size = 64
	tl := New("t", size, NewPolicy("random", size, rng.New(1)))
	for v := mem.PageID(0); v < size; v++ {
		tl.Insert(v, 1000+v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, hit := tl.ReverseLookup(mem.PageID(1000 + i%size)); !hit {
			b.Fatal("resident page missed")
		}
	}
}
