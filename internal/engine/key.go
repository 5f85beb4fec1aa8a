package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"malec/internal/config"
)

// Key canonically identifies one simulation point. Two runs with equal keys
// are guaranteed to produce identical Results (the simulator is
// deterministic in its inputs), which is what makes results content
// addressable: the cache, the singleflight table and the disk store all
// index by Key.
type Key struct {
	// ConfigDigest is a hex digest of the full configuration struct, so
	// two presets that happen to share a Name but differ in any parameter
	// never collide.
	ConfigDigest string `json:"configDigest"`
	Benchmark    string `json:"benchmark"`
	Instructions int    `json:"instructions"`
	Seed         uint64 `json:"seed"`
}

// KeyFor derives the canonical Key of a simulation point.
func KeyFor(cfg config.Config, benchmark string, instructions int, seed uint64) Key {
	return Key{
		ConfigDigest: ConfigDigest(cfg),
		Benchmark:    benchmark,
		Instructions: instructions,
		Seed:         seed,
	}
}

// ConfigDigest returns the content digest of a configuration as 16 hex
// characters: the memory-side half (MemSideDigest) followed by a digest of
// the complete configuration. Every field of config.Config is exported, so
// the JSON encoding covers the complete machine description in fixed
// struct order.
//
// The split layout makes the memory-side identity visible in the key: two
// configurations that differ only core-side (widths, latencies, buffer
// depths, sampling schedule) share their first 8 characters — and with
// them the warmed-checkpoint store, which is keyed by MemSideDigest alone.
func ConfigDigest(cfg config.Config) string {
	// Sampling is part of the encoding: sampled results are estimates,
	// never interchangeable with exact ones.
	enc, err := json.Marshal(cfg)
	if err != nil {
		// config.Config contains only plain scalar fields; Marshal
		// cannot fail on it.
		panic("engine: config not serializable: " + err.Error())
	}
	// Quotes inside string values are escaped, so the unescaped key
	// sequence occurs exactly once.
	enc = bytes.Replace(enc, []byte(bypassKey), []byte(retiredTogglesBypassKey), 1)
	sum := sha256.Sum256(enc)
	return MemSideDigest(cfg) + hex.EncodeToString(sum[:4])
}

// config.Config once carried three host-simulator toggles between MSHRs
// and Bypass, always digested as false. ConfigDigest splices them back in
// so every content address — and with it stored results, campaign exports
// and the keys peers compare — stays what it was while they existed.
const (
	bypassKey               = `,"Bypass":`
	retiredTogglesBypassKey = `,"DisableCycleSkip":false,"DisableWakeup":false,"DisableMemIndex":false,"Bypass":`
)

// memSideIdentity is the subset of config.Config that determines the
// functional-warming trajectory and therefore the contents of a warmed
// checkpoint: the structures a snapshot covers (caches, TLBs, page table,
// way tables, stream detector) and the RNG seed driving their replacement
// policies. Core-side parameters — pipeline widths, latencies, buffer
// depths, energy ports, the sampling schedule itself — are excluded, which
// is what lets a core-side parameter sweep warm up once.
type memSideIdentity struct {
	Seed           uint64
	TLBEntries     int
	UTLBEntries    int
	WayDet         config.WayDetKind
	WDUEntries     int
	WDUPorts       int
	ConstrainWays  bool
	FeedbackUpdate bool
	WTChunkLines   int
	WTPoolFraction float64
	Bypass         bool
}

// MemSideDigest returns the 8-hex-character digest of a configuration's
// memory-side identity.
func MemSideDigest(cfg config.Config) string {
	id := memSideIdentity{
		Seed:           cfg.Seed,
		TLBEntries:     cfg.TLBEntries,
		UTLBEntries:    cfg.UTLBEntries,
		WayDet:         cfg.WayDet,
		WDUEntries:     cfg.WDUEntries,
		WDUPorts:       cfg.WDUPorts,
		ConstrainWays:  cfg.ConstrainWays,
		FeedbackUpdate: cfg.FeedbackUpdate,
		WTChunkLines:   cfg.WTChunkLines,
		WTPoolFraction: cfg.WTPoolFraction,
		Bypass:         cfg.Bypass,
	}
	enc, err := json.Marshal(id)
	if err != nil {
		panic("engine: mem-side identity not serializable: " + err.Error())
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:4])
}

// String renders the key in digest:benchmark:instructions:seed form.
func (k Key) String() string {
	return fmt.Sprintf("%s:%s:%d:%d", k.ConfigDigest, k.Benchmark, k.Instructions, k.Seed)
}

// shard returns the disk-store shard directory for the key, the first two
// digest characters, spreading entries over up to 256 directories.
func (k Key) shard() string {
	if len(k.ConfigDigest) < 2 {
		return "00"
	}
	return k.ConfigDigest[:2]
}

// filename returns the disk-store file name for the key.
func (k Key) filename() string {
	return fmt.Sprintf("%s_%s_%d_%d.json", k.ConfigDigest, k.Benchmark, k.Instructions, k.Seed)
}
