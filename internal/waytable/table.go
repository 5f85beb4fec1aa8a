package waytable

import "malec/internal/mem"

// TableStats counts way-table activity for the energy model.
type TableStats struct {
	Reads          uint64 // entry reads piggybacked on TLB lookups
	LineUpdates    uint64 // single-line code writes (fills/evicts/feedback)
	EntryTransfers uint64 // full 128 bit entry moves (uWT<->WT sync)
	Resets         uint64 // full entry invalidations (new page)
}

// Table is a WT or uWT: way-table entries indexed in lockstep with the
// entries of its companion (u)TLB, plus a record of which physical page
// each slot currently describes.
//
// SlotFor is O(1) through a compact page chain index maintained on every
// slot mutation; its answer equals a linear scan over the slots (the
// reference in index_test.go). When several valid slots describe the same
// page (possible through the public API, never through the PageSystem) the
// lookup returns the lowest slot.
type Table struct {
	Name    string
	entries []Entry
	pages   []mem.PageID // physical page per slot
	valid   []bool
	stats   TableStats

	idx *mem.SlotIndex // page bucket chains over valid slots
}

// NewTable returns a table with size entries (matching its TLB).
func NewTable(name string, size int) *Table {
	return &Table{
		Name:    name,
		entries: make([]Entry, size),
		pages:   make([]mem.PageID, size),
		valid:   make([]bool, size),
		idx:     mem.NewSlotIndex(size),
	}
}

// setPage updates slot idx's page/valid state, keeping the chain index in
// sync. Duplicate pages (possible through the public API, never through
// the PageSystem) coexist in a chain; SlotFor resolves to the lowest.
func (t *Table) setPage(idx int, page mem.PageID, valid bool) {
	if t.valid[idx] {
		t.idx.Remove(uint32(t.pages[idx]), int32(idx))
	}
	t.pages[idx] = page
	t.valid[idx] = valid
	if valid {
		t.idx.Add(uint32(page), int32(idx))
	}
}

// Size returns the number of entries.
func (t *Table) Size() int { return len(t.entries) }

// Stats returns a copy of the activity counters.
func (t *Table) Stats() TableStats { return t.stats }

// Reset clears slot idx for a new physical page, invalidating all lines.
func (t *Table) Reset(idx int, page mem.PageID) {
	t.entries[idx].Reset()
	t.setPage(idx, page, true)
	t.stats.Resets++
}

// InvalidateSlot clears slot idx entirely.
func (t *Table) InvalidateSlot(idx int) {
	t.entries[idx].Reset()
	t.setPage(idx, t.pages[idx], false)
}

// SlotFor returns the lowest valid slot describing physical page p, or
// -1, via the chain index (indexed slots are always valid).
func (t *Table) SlotFor(p mem.PageID) int {
	best := int32(-1)
	for i := t.idx.First(uint32(p)); i >= 0; i = t.idx.Next(i) {
		if t.pages[i] == p && (best < 0 || i < best) {
			best = i
		}
	}
	return int(best)
}

// PageAt returns the physical page described by slot idx and whether the
// slot is valid.
func (t *Table) PageAt(idx int) (mem.PageID, bool) {
	return t.pages[idx], t.valid[idx]
}

// Read returns the way code for a line of the page at slot idx, counting
// one entry read. It returns known=false for invalid slots.
func (t *Table) Read(idx int, lineInPage uint32) (way int, known bool) {
	t.stats.Reads++
	if !t.valid[idx] {
		return -1, false
	}
	return t.entries[idx].Get(lineInPage)
}

// Peek is Read without statistics.
func (t *Table) Peek(idx int, lineInPage uint32) (way int, known bool) {
	if !t.valid[idx] {
		return -1, false
	}
	return t.entries[idx].Get(lineInPage)
}

// SetLine records a line's way in slot idx (fill or feedback update).
func (t *Table) SetLine(idx int, lineInPage uint32, way int) {
	if !t.valid[idx] {
		return
	}
	t.entries[idx].Set(lineInPage, way)
	t.stats.LineUpdates++
}

// InvalidateLine marks a line unknown in slot idx (line eviction).
func (t *Table) InvalidateLine(idx int, lineInPage uint32) {
	if !t.valid[idx] {
		return
	}
	t.entries[idx].Invalidate(lineInPage)
	t.stats.LineUpdates++
}

// CopySlot transfers the full entry from slot srcIdx of src into slot
// dstIdx of t (uWT refill from WT, or uWT writeback to WT), counting one
// entry transfer on each side.
func (t *Table) CopySlot(dstIdx int, src *Table, srcIdx int) {
	t.entries[dstIdx] = src.entries[srcIdx]
	t.setPage(dstIdx, src.pages[srcIdx], src.valid[srcIdx])
	t.stats.EntryTransfers++
	src.stats.EntryTransfers++
}
