package tlb

import (
	"math/bits"

	"malec/internal/mem"
)

// Entry is one fully-associative TLB entry.
type Entry struct {
	VPage mem.PageID
	PPage mem.PageID
	Valid bool
}

// Stats counts TLB activity for performance and energy accounting.
type Stats struct {
	Lookups        uint64 // forward (virtual) lookups
	Hits           uint64
	Misses         uint64
	Inserts        uint64
	Evictions      uint64 // valid entries displaced
	ReverseLookups uint64 // physical-tag lookups (WT maintenance)
	ReverseHits    uint64
}

// MissRate returns misses / lookups.
func (s Stats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

// TLB is a fully-associative translation buffer. Following the paper's
// energy methodology it supports reverse lookups by physical page ID so
// cache line fills and evictions can locate the way-table entry of their
// page ("uTLB and TLB need to be modified to allow lookups based on
// physical, in addition to virtual, PageIDs").
//
// Lookups are O(1): two compact chain indexes (VPage and PPage bucket
// chains over the entry array, fixed flat arrays, zero steady-state
// allocations) are maintained through insert/evict/invalidate instead of
// scanning the entry array. Every answer equals that of a linear scan over
// the entries (the reference in index_test.go): when several valid entries
// share a page (possible through the public API, never through an
// injective page table) they coexist in one chain and lookups return the
// lowest entry index.
type TLB struct {
	Name    string
	entries []Entry
	pol     Policy
	stats   Stats

	vIdx     *mem.SlotIndex // VPage bucket chains over valid entries
	pIdx     *mem.SlotIndex // PPage bucket chains over valid entries
	freeMask []uint64       // bit set = entry invalid; lowest set bit is the scan's fill choice
	live     int            // number of valid entries

	// OnEvict, if non-nil, is invoked with the index and previous
	// contents of a valid entry about to be displaced (way-table
	// synchronization hook).
	OnEvict func(idx int, old Entry)
	// OnInsert, if non-nil, is invoked after a new translation lands in
	// an entry.
	OnInsert func(idx int, e Entry)
}

// New returns a TLB with size entries and the given replacement policy.
func New(name string, size int, pol Policy) *TLB {
	t := &TLB{
		Name:     name,
		entries:  make([]Entry, size),
		pol:      pol,
		vIdx:     mem.NewSlotIndex(size),
		pIdx:     mem.NewSlotIndex(size),
		freeMask: make([]uint64, (size+63)/64),
	}
	for i := 0; i < size; i++ {
		t.freeMask[i>>6] |= 1 << uint(i&63)
	}
	return t
}

// setEntry installs e in slot idx, keeping the chain indexes and the free
// mask in sync with the entry array. Every valid entry is linked into both
// indexes, so duplicate pages (legal through the public API, impossible
// through an injective page table) simply coexist in a chain and lookups
// resolve them by taking the lowest index, exactly as a scan would.
func (t *TLB) setEntry(idx int, e Entry) {
	old := t.entries[idx]
	t.entries[idx] = e
	if old.Valid {
		t.vIdx.Remove(uint32(old.VPage), int32(idx))
		t.pIdx.Remove(uint32(old.PPage), int32(idx))
		if !e.Valid {
			t.freeMask[idx>>6] |= 1 << uint(idx&63)
			t.live--
		}
	} else if e.Valid {
		t.freeMask[idx>>6] &^= 1 << uint(idx&63)
		t.live++
	}
	if e.Valid {
		t.vIdx.Add(uint32(e.VPage), int32(idx))
		t.pIdx.Add(uint32(e.PPage), int32(idx))
	}
}

// findV returns the lowest valid entry index holding virtual page v, or
// -1, via the VPage chain index (indexed entries are always valid).
func (t *TLB) findV(v mem.PageID) int {
	best := int32(-1)
	for i := t.vIdx.First(uint32(v)); i >= 0; i = t.vIdx.Next(i) {
		if t.entries[i].VPage == v && (best < 0 || i < best) {
			best = i
		}
	}
	return int(best)
}

// findP is findV for physical pages.
func (t *TLB) findP(p mem.PageID) int {
	best := int32(-1)
	for i := t.pIdx.First(uint32(p)); i >= 0; i = t.pIdx.Next(i) {
		if t.entries[i].PPage == p && (best < 0 || i < best) {
			best = i
		}
	}
	return int(best)
}

// firstFree returns the lowest invalid entry index, or -1 when full, read
// from the free mask.
func (t *TLB) firstFree() int {
	if t.live == len(t.entries) {
		return -1
	}
	for w, word := range t.freeMask {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Size returns the number of entries.
func (t *TLB) Size() int { return len(t.entries) }

// Stats returns a copy of the activity counters.
func (t *TLB) Stats() Stats { return t.stats }

// Entry returns a copy of entry i.
func (t *TLB) Entry(i int) Entry { return t.entries[i] }

// Lookup searches for virtual page v. On a hit it touches the replacement
// state and returns the entry index.
func (t *TLB) Lookup(v mem.PageID) (idx int, e Entry, hit bool) {
	t.stats.Lookups++
	if i := t.findV(v); i >= 0 {
		t.stats.Hits++
		t.pol.Touch(i)
		return i, t.entries[i], true
	}
	t.stats.Misses++
	return -1, Entry{}, false
}

// Probe is Lookup without statistics or replacement-state side effects.
func (t *TLB) Probe(v mem.PageID) (idx int, e Entry, hit bool) {
	if i := t.findV(v); i >= 0 {
		return i, t.entries[i], true
	}
	return -1, Entry{}, false
}

// ReverseLookup searches for physical page p (used after PIPT cache line
// fills/evictions to find the page's way-table entry).
func (t *TLB) ReverseLookup(p mem.PageID) (idx int, e Entry, hit bool) {
	t.stats.ReverseLookups++
	if i := t.findP(p); i >= 0 {
		t.stats.ReverseHits++
		return i, t.entries[i], true
	}
	return -1, Entry{}, false
}

// Insert places translation v->p, evicting a victim if needed, and returns
// the index used. Invalid entries are preferred over evictions.
func (t *TLB) Insert(v, p mem.PageID) int {
	t.stats.Inserts++
	idx := t.firstFree()
	if idx < 0 {
		idx = t.pol.Victim()
		if t.entries[idx].Valid {
			t.stats.Evictions++
			if t.OnEvict != nil {
				t.OnEvict(idx, t.entries[idx])
			}
		}
	}
	t.setEntry(idx, Entry{VPage: v, PPage: p, Valid: true})
	t.pol.Touch(idx)
	if t.OnInsert != nil {
		t.OnInsert(idx, t.entries[idx])
	}
	return idx
}

// Invalidate removes the entry for virtual page v, if present.
func (t *TLB) Invalidate(v mem.PageID) {
	if i, _, hit := t.Probe(v); hit {
		if t.OnEvict != nil {
			t.OnEvict(i, t.entries[i])
		}
		t.setEntry(i, Entry{})
	}
}

// Level identifies where a translation was satisfied.
type Level int

// Translation levels.
const (
	LevelUTLB Level = iota // micro-TLB hit
	LevelTLB               // main TLB hit (uTLB refilled)
	LevelWalk              // page walk (both missed)
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelUTLB:
		return "uTLB"
	case LevelTLB:
		return "TLB"
	case LevelWalk:
		return "walk"
	default:
		return "unknown"
	}
}

// Result describes one translation through the hierarchy.
type Result struct {
	PPage   mem.PageID
	Level   Level
	UIdx    int // uTLB entry index (-1 when bypassed)
	TIdx    int // TLB entry index (-1 on walk-only paths)
	Latency int // additional cycles beyond a uTLB hit
}

// Hierarchy is the two-level translation path: a small uTLB backed by the
// main TLB, backed by a (modelled) page walk of fixed latency.
type Hierarchy struct {
	U    *TLB
	Main *TLB
	PT   *PageTable

	// TLBRefillLatency is the extra latency of a uTLB miss/TLB hit.
	TLBRefillLatency int
	// WalkLatency is the extra latency of a full page walk.
	WalkLatency int
}

// Translate resolves virtual page v through the hierarchy, performing any
// refills, and reports where it hit.
func (h *Hierarchy) Translate(v mem.PageID) Result {
	if ui, e, hit := h.U.Lookup(v); hit {
		ti, _, _ := h.Main.Probe(v)
		return Result{PPage: e.PPage, Level: LevelUTLB, UIdx: ui, TIdx: ti}
	}
	if ti, e, hit := h.Main.Lookup(v); hit {
		ui := h.U.Insert(v, e.PPage)
		return Result{PPage: e.PPage, Level: LevelTLB, UIdx: ui, TIdx: ti,
			Latency: h.TLBRefillLatency}
	}
	p := h.PT.Translate(v)
	ti := h.Main.Insert(v, p)
	ui := h.U.Insert(v, p)
	return Result{PPage: p, Level: LevelWalk, UIdx: ui, TIdx: ti,
		Latency: h.WalkLatency}
}

// ReverseLookup finds the uTLB and TLB indices holding physical page p.
// Either index is -1 when the page is not resident at that level.
func (h *Hierarchy) ReverseLookup(p mem.PageID) (uIdx, tIdx int) {
	uIdx, tIdx = -1, -1
	if i, _, hit := h.U.ReverseLookup(p); hit {
		uIdx = i
	}
	if i, _, hit := h.Main.ReverseLookup(p); hit {
		tIdx = i
	}
	return uIdx, tIdx
}
