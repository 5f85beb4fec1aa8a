package waytable

import (
	"math/bits"
	"testing"

	"malec/internal/mem"
	"malec/internal/rng"
	"malec/internal/tlb"
)

// scanSlotFor is the reference SlotFor: the lowest valid slot describing
// page p, or -1, by a linear scan of the store's slots.
func scanSlotFor(st Store, p mem.PageID) int {
	for i := 0; i < st.Size(); i++ {
		if page, valid := st.PageAt(i); valid && page == p {
			return i
		}
	}
	return -1
}

// checkSlotForMatchesScan requires SlotFor to equal the scan for every page
// of the space.
func checkSlotForMatchesScan(t *testing.T, st Store, op, pageSpace int) {
	t.Helper()
	for p := mem.PageID(0); p < mem.PageID(pageSpace); p++ {
		if got, want := st.SlotFor(p), scanSlotFor(st, p); got != want {
			t.Fatalf("op %d: SlotFor(%d) = %d, scan says %d", op, p, got, want)
		}
	}
}

// checkChunksMatchScan requires the segmented table's direct-mapped chunk
// association and free bitmap to agree with scans of the chunk pool: every
// (slot, part) maps to the chunk whose owner tag names it, and the lowest
// free bit is the first chunk the pool scan finds unowned.
func checkChunksMatchScan(t *testing.T, st *SegmentedTable, op int) {
	t.Helper()
	for idx := range st.slots {
		for part := 0; part < st.partsPerPage; part++ {
			want := -1
			for c, ch := range st.pool {
				if ch.owner == int32(idx) && ch.part == uint32(part) {
					want = c
					break
				}
			}
			if got := st.chunkFor(idx, uint32(part)); got != want {
				t.Fatalf("op %d: chunkFor(%d,%d) = %d, pool scan says %d", op, idx, part, got, want)
			}
		}
	}
	wantFree, free := -1, 0
	for c, ch := range st.pool {
		if ch.owner < 0 {
			if wantFree < 0 {
				wantFree = c
			}
			free++
		}
	}
	gotFree := -1
	for w, word := range st.freeMask {
		if word != 0 {
			gotFree = w<<6 + bits.TrailingZeros64(word)
			break
		}
	}
	if gotFree != wantFree || st.freeCount != free {
		t.Fatalf("op %d: free bitmap says first=%d count=%d, pool scan says first=%d count=%d",
			op, gotFree, st.freeCount, wantFree, free)
	}
}

// driveStore runs a randomized slot/line workload against st and, after
// every operation, checks the indexed lookups against scans of the same
// instance (check adds structure-specific scans). The page space is small
// enough that slots are recycled and (via direct Reset calls) duplicate
// pages occur, and for segmented tables the pool is undersized so FIFO
// chunk replacement engages.
func driveStore(t *testing.T, st Store, check func(op int)) {
	t.Helper()
	const pageSpace = 16
	const ops = 30000
	slots := st.Size()
	drv := rng.New(42)
	for op := 0; op < ops; op++ {
		idx := drv.Intn(slots)
		page := mem.PageID(drv.Intn(pageSpace))
		line := uint32(drv.Intn(mem.LinesPerPage))
		way := drv.Intn(mem.L1Ways)
		switch drv.Intn(6) {
		case 0:
			st.Reset(idx, page)
		case 1:
			st.InvalidateSlot(idx)
		case 2:
			st.SetLine(idx, line, way)
		case 3:
			st.InvalidateLine(idx, line)
		case 4:
			st.Read(idx, line)
		case 5:
			st.CopyFrom(drv.Intn(slots), st, idx)
		}
		checkSlotForMatchesScan(t, st, op, pageSpace)
		if check != nil {
			check(op)
		}
	}
}

// TestTableIndexedMatchesScanRandomized cross-checks the full Table's
// indexed SlotFor against the slot scan over a randomized workload.
func TestTableIndexedMatchesScanRandomized(t *testing.T) {
	driveStore(t, NewTable("idx", 8), nil)
}

// TestSegmentedIndexedMatchesScanRandomized cross-checks the segmented
// table (indexed SlotFor, direct-mapped chunk association, bitmap free
// list) against scans of its slots and chunk pool under pool pressure
// (pool half the full-table chunk demand, so FIFO replacement runs).
func TestSegmentedIndexedMatchesScanRandomized(t *testing.T) {
	const slots, chunkLines = 8, 16
	pool := slots * (mem.LinesPerPage / chunkLines) / 2
	st := NewSegmentedTable("idx", slots, chunkLines, pool)
	driveStore(t, st, func(op int) { checkChunksMatchScan(t, st, op) })
}

// scanTLB is the reference forward TLB lookup: the lowest valid entry
// holding virtual page v, or -1.
func scanTLB(tl *tlb.TLB, v mem.PageID) int {
	for i := 0; i < tl.Size(); i++ {
		if e := tl.Entry(i); e.Valid && e.VPage == v {
			return i
		}
	}
	return -1
}

// TestPageSystemIndexesMatchScan builds a complete hierarchy+page-system
// stack and drives translate/fill/evict/feedback traffic through it. After
// every operation each TLB's forward lookup and each way table's SlotFor —
// the lookups all WT/uWT synchronization flows through — must equal a scan
// of the same structure.
func TestPageSystemIndexesMatchScan(t *testing.T) {
	const vpages = 64
	u := tlb.New("uTLB", 4, tlb.NewPolicy("second-chance", 4, rng.New(1)))
	m := tlb.New("TLB", 16, tlb.NewPolicy("random", 16, rng.New(2)))
	h := &tlb.Hierarchy{U: u, Main: m, PT: tlb.NewPageTable()}
	sys := NewPageSystem(h)
	drv := rng.New(17)
	for op := 0; op < 20000; op++ {
		page := mem.PageID(drv.Intn(vpages))
		off := uint32(drv.Intn(mem.PageSize)) &^ 7
		switch drv.Intn(4) {
		case 0, 1:
			r := h.Translate(page)
			pa := mem.MakeAddr(r.PPage, off)
			if _, known := sys.Lookup(pa, r.UIdx); !known {
				sys.Feedback(pa, r.UIdx, drv.Intn(mem.L1Ways))
			}
		case 2:
			pa := mem.MakeAddr(mem.PageID(drv.Intn(1<<14)), off)
			sys.OnFill(pa.LineAddr(), 0, drv.Intn(mem.L1Ways))
		case 3:
			pa := mem.MakeAddr(mem.PageID(drv.Intn(1<<14)), off)
			sys.OnEvict(pa.LineAddr(), 0, 0)
		}
		for _, tl := range []*tlb.TLB{u, m} {
			for v := mem.PageID(0); v < vpages; v++ {
				if got, _, _ := tl.Probe(v); got != scanTLB(tl, v) {
					t.Fatalf("op %d: %s Probe(%d) = %d, scan says %d", op, tl.Name, v, got, scanTLB(tl, v))
				}
			}
		}
		for _, st := range []Store{sys.UWT, sys.WT} {
			for i := 0; i < st.Size(); i++ {
				if p, valid := st.PageAt(i); valid {
					if got, want := st.SlotFor(p), scanSlotFor(st, p); got != want {
						t.Fatalf("op %d: SlotFor(%d) = %d, scan says %d", op, p, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkWayTableRead measures the way-table hot path — SlotFor (the
// reverse-lookup-driven maintenance entry point) followed by an entry
// read — for the full and segmented tables.
func BenchmarkWayTableRead(b *testing.B) {
	const slots = 64
	for _, bench := range []struct {
		name string
		st   Store
	}{
		{"table", NewTable("full", slots)},
		{"segmented", NewSegmentedTable("seg", slots, 16, slots*4)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			st := bench.st
			for i := 0; i < slots; i++ {
				st.Reset(i, mem.PageID(100+i))
				for l := uint32(0); l < mem.LinesPerPage; l += 2 {
					st.SetLine(i, l, int(l/4)%mem.L1Ways)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page := mem.PageID(100 + i%slots)
				s := st.SlotFor(page)
				if s < 0 {
					b.Fatal("resident page has no slot")
				}
				st.Read(s, uint32(i)%mem.LinesPerPage)
			}
		})
	}
}
