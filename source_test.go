package malec

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSliceSourceMatchesGenSource is the correctness backbone of the
// materialized-trace cache: simulating a pre-generated record slice must
// produce a Result byte-identical to pulling the same records live from
// the generator, for every benchmark of every suite (plus the stress set).
// The engine's trace cache relies on this to substitute SliceSource over a
// shared arena for per-simulation generation.
func TestSliceSourceMatchesGenSource(t *testing.T) {
	const instructions = 4000
	benches := append(Benchmarks(), StressBenchmarks()...)
	for _, bench := range benches {
		live := Run(MALEC(), bench, instructions, 1)
		slice := RunTrace(MALEC(), bench, Generate(bench, instructions, 1))
		jLive, err := json.Marshal(live)
		if err != nil {
			t.Fatal(err)
		}
		jSlice, err := json.Marshal(slice)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jLive, jSlice) {
			t.Errorf("%s: SliceSource result differs from GenSource (cycles %d vs %d)",
				bench, live.Cycles, slice.Cycles)
		}
	}
	// Cross-check a second interface kind and seed on a subset.
	for _, bench := range []string{"gzip", "mcf", "djpeg"} {
		for _, cfg := range []Config{Base1ldst(), Base2ld1st()} {
			live := Run(cfg, bench, instructions, 2)
			slice := RunTrace(cfg, bench, Generate(bench, instructions, 2))
			if live.Cycles != slice.Cycles || live.Energy.Total() != slice.Energy.Total() {
				t.Errorf("%s/%s: slice-fed run diverged from live generation", cfg.Name, bench)
			}
		}
	}
}
