package waytable

import (
	"math/bits"

	"malec/internal/mem"
)

// Store is the way-information storage interface shared by the full Table
// and the SegmentedTable, letting the PageSystem run on either. The paper
// suggests segmentation as an extension for wide pages (Sec. VI-D): "the WT
// itself might be segmented. By allocating and replacing WT chunks in a
// FIFO or LRU manner, their number could be smaller than required to
// represent full pages."
type Store interface {
	Size() int
	Reset(idx int, page mem.PageID)
	InvalidateSlot(idx int)
	SlotFor(p mem.PageID) int
	PageAt(idx int) (mem.PageID, bool)
	Read(idx int, lineInPage uint32) (way int, known bool)
	Peek(idx int, lineInPage uint32) (way int, known bool)
	SetLine(idx int, lineInPage uint32, way int)
	InvalidateLine(idx int, lineInPage uint32)
	// CopyFrom transfers the full way information for dstIdx from slot
	// srcIdx of src (uWT<->WT synchronization).
	CopyFrom(dstIdx int, src Store, srcIdx int)
	// StorageBits returns the table's total storage cost in bits (for
	// the area/leakage comparison against full tables).
	StorageBits() int
}

// Table implements Store; CopyFrom generalizes CopySlot to any Store.
func (t *Table) CopyFrom(dstIdx int, src Store, srcIdx int) {
	if st, ok := src.(*Table); ok {
		t.CopySlot(dstIdx, st, srcIdx)
		return
	}
	page, valid := src.PageAt(srcIdx)
	if !valid {
		t.InvalidateSlot(dstIdx)
		return
	}
	t.Reset(dstIdx, page)
	for l := uint32(0); l < mem.LinesPerPage; l++ {
		if way, known := src.Peek(srcIdx, l); known {
			t.entries[dstIdx].Set(l, way)
		}
	}
	t.stats.EntryTransfers++
}

// StorageBits implements Store for the full table.
func (t *Table) StorageBits() int { return len(t.entries) * BitsPerEntry }

// segChunk is one shared pool chunk covering chunkLines lines of one page;
// its line codes live packed in the table-wide codes slab.
type segChunk struct {
	owner int32  // slot index owning the chunk, -1 when free
	part  uint32 // which chunk of the page (lineInPage / chunkLines)
}

// SegmentedTable is a way table whose line codes live in a shared pool of
// fixed-size chunks, allocated on demand and replaced FIFO. With fewer pool
// chunks than slots*chunksPerPage it trades coverage for area — the
// trade-off the paper proposes for wide pages.
//
// The host-side representation is scan-free: line codes are packed into one
// flat slab (chunk i owns codes[i*chunkLines : (i+1)*chunkLines]), the
// (slot, part) -> chunk association is a direct-mapped table consulted by
// Read/Peek/SetLine instead of a pool scan, free chunks come from a bitmap
// whose lowest set bit reproduces the scan's first-free choice, and SlotFor
// goes through a page->slot hash index. Allocation and replacement
// decisions are identical to the scanning implementation (the references
// in index_test.go).
type SegmentedTable struct {
	name         string
	chunkLines   int
	partsPerPage int
	slots        []segSlot
	pool         []segChunk
	codes        []uint8  // packed line codes, chunkLines per pool chunk
	chunkOf      []int32  // slot*partsPerPage+part -> pool chunk, -1 absent
	freeMask     []uint64 // bit set = pool chunk free
	freeCount    int
	fifo         int
	stats        TableStats
	idx          *mem.SlotIndex // page bucket chains over valid slots
}

type segSlot struct {
	page  mem.PageID
	valid bool
}

// NewSegmentedTable returns a segmented table with size slots, chunks of
// chunkLines lines, and poolChunks shared chunks.
func NewSegmentedTable(name string, size, chunkLines, poolChunks int) *SegmentedTable {
	if mem.LinesPerPage%chunkLines != 0 {
		panic("waytable: chunkLines must divide lines per page")
	}
	t := &SegmentedTable{
		name:         name,
		chunkLines:   chunkLines,
		partsPerPage: mem.LinesPerPage / chunkLines,
		slots:        make([]segSlot, size),
		pool:         make([]segChunk, poolChunks),
		codes:        make([]uint8, poolChunks*chunkLines),
		freeMask:     make([]uint64, (poolChunks+63)/64),
		freeCount:    poolChunks,
		idx:          mem.NewSlotIndex(size),
	}
	t.chunkOf = make([]int32, size*t.partsPerPage)
	for i := range t.chunkOf {
		t.chunkOf[i] = -1
	}
	for i := range t.pool {
		t.pool[i] = segChunk{owner: -1}
		t.freeMask[i>>6] |= 1 << uint(i&63)
	}
	return t
}

// Size implements Store.
func (t *SegmentedTable) Size() int { return len(t.slots) }

// Stats returns the activity counters.
func (t *SegmentedTable) Stats() TableStats { return t.stats }

// StorageBits implements Store: pool codes plus per-chunk owner/part tags.
func (t *SegmentedTable) StorageBits() int {
	tagBits := 8 + 3 // owner id + part id, generous
	return len(t.pool) * (2*t.chunkLines + tagBits)
}

// Reset implements Store: claims the slot and frees its old chunks.
func (t *SegmentedTable) Reset(idx int, page mem.PageID) {
	t.freeChunks(idx)
	t.setSlot(idx, page, true)
	t.stats.Resets++
}

// InvalidateSlot implements Store.
func (t *SegmentedTable) InvalidateSlot(idx int) {
	t.freeChunks(idx)
	t.setSlot(idx, t.slots[idx].page, false)
}

// setSlot updates slot idx's page/valid state, keeping the chain index in
// sync; duplicate pages coexist in a chain and SlotFor resolves to the
// lowest slot.
func (t *SegmentedTable) setSlot(idx int, page mem.PageID, valid bool) {
	if t.slots[idx].valid {
		t.idx.Remove(uint32(t.slots[idx].page), int32(idx))
	}
	t.slots[idx] = segSlot{page: page, valid: valid}
	if valid {
		t.idx.Add(uint32(page), int32(idx))
	}
}

// freeChunks releases every pool chunk owned by slot idx, found through
// the slot's direct-mapped chunk table rather than a pool scan.
func (t *SegmentedTable) freeChunks(idx int) {
	base := idx * t.partsPerPage
	for part := 0; part < t.partsPerPage; part++ {
		if c := t.chunkOf[base+part]; c >= 0 {
			t.release(int(c))
			t.chunkOf[base+part] = -1
		}
	}
}

// release returns pool chunk c to the free set.
func (t *SegmentedTable) release(c int) {
	t.pool[c].owner = -1
	t.freeMask[c>>6] |= 1 << uint(c&63)
	t.freeCount++
}

// SlotFor implements Store.
func (t *SegmentedTable) SlotFor(p mem.PageID) int {
	best := int32(-1)
	for i := t.idx.First(uint32(p)); i >= 0; i = t.idx.Next(i) {
		if t.slots[i].page == p && (best < 0 || i < best) {
			best = i
		}
	}
	return int(best)
}

// PageAt implements Store.
func (t *SegmentedTable) PageAt(idx int) (mem.PageID, bool) {
	return t.slots[idx].page, t.slots[idx].valid
}

// chunkFor finds the pool chunk for (slot, part), or -1, through the
// direct-mapped association table.
func (t *SegmentedTable) chunkFor(idx int, part uint32) int {
	return int(t.chunkOf[idx*t.partsPerPage+int(part)])
}

// allocChunk claims a pool chunk for (slot, part): the lowest-numbered free
// chunk if any (the choice the free scan used to make), FIFO-replacing
// otherwise.
func (t *SegmentedTable) allocChunk(idx int, part uint32) int {
	if t.freeCount > 0 {
		for w, word := range t.freeMask {
			if word != 0 {
				c := w<<6 + bits.TrailingZeros64(word)
				t.claim(c, idx, part)
				return c
			}
		}
	}
	victim := t.fifo
	t.fifo = (t.fifo + 1) % len(t.pool)
	t.claim(victim, idx, part)
	return victim
}

// claim resets chunk i for a new owner, detaching any previous owner's
// association and clearing the chunk's packed codes.
func (t *SegmentedTable) claim(i, idx int, part uint32) {
	if old := t.pool[i].owner; old >= 0 {
		t.chunkOf[int(old)*t.partsPerPage+int(t.pool[i].part)] = -1
	} else {
		t.freeMask[i>>6] &^= 1 << uint(i&63)
		t.freeCount--
	}
	t.pool[i].owner = int32(idx)
	t.pool[i].part = part
	t.chunkOf[idx*t.partsPerPage+int(part)] = int32(i)
	codes := t.codes[i*t.chunkLines : (i+1)*t.chunkLines]
	for j := range codes {
		codes[j] = codeUnknown
	}
}

// Read implements Store.
func (t *SegmentedTable) Read(idx int, lineInPage uint32) (way int, known bool) {
	t.stats.Reads++
	return t.Peek(idx, lineInPage)
}

// Peek implements Store.
func (t *SegmentedTable) Peek(idx int, lineInPage uint32) (way int, known bool) {
	if !t.slots[idx].valid {
		return -1, false
	}
	part := lineInPage / uint32(t.chunkLines)
	c := t.chunkFor(idx, part)
	if c < 0 {
		return -1, false
	}
	return decode(lineInPage, t.codes[c*t.chunkLines+int(lineInPage)%t.chunkLines])
}

// SetLine implements Store, allocating the chunk on demand.
func (t *SegmentedTable) SetLine(idx int, lineInPage uint32, way int) {
	if !t.slots[idx].valid {
		return
	}
	part := lineInPage / uint32(t.chunkLines)
	c := t.chunkFor(idx, part)
	if c < 0 {
		c = t.allocChunk(idx, part)
	}
	t.codes[c*t.chunkLines+int(lineInPage)%t.chunkLines] = encode(lineInPage, way)
	t.stats.LineUpdates++
}

// InvalidateLine implements Store. Absent chunks stay absent (unknown).
func (t *SegmentedTable) InvalidateLine(idx int, lineInPage uint32) {
	if !t.slots[idx].valid {
		return
	}
	part := lineInPage / uint32(t.chunkLines)
	if c := t.chunkFor(idx, part); c >= 0 {
		t.codes[c*t.chunkLines+int(lineInPage)%t.chunkLines] = codeUnknown
		t.stats.LineUpdates++
	}
}

// CopyFrom implements Store: reconstructs the source slot's known lines,
// allocating chunks as needed.
func (t *SegmentedTable) CopyFrom(dstIdx int, src Store, srcIdx int) {
	page, valid := src.PageAt(srcIdx)
	if !valid {
		t.InvalidateSlot(dstIdx)
		return
	}
	t.Reset(dstIdx, page)
	for l := uint32(0); l < mem.LinesPerPage; l++ {
		if way, known := src.Peek(srcIdx, l); known {
			t.SetLine(dstIdx, l, way)
		}
	}
	t.stats.EntryTransfers++
}
