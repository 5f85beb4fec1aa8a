package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"malec/internal/config"
)

// TestPresetDigestTable checks the precomputed digest of every registry
// preset against the full computation, and that a sampled preset or a
// preset with one field changed misses the table yet still gets a digest
// of its own.
func TestPresetDigestTable(t *testing.T) {
	names := config.Names()
	if len(presetDigests) != len(names) {
		t.Fatalf("table holds %d digests for %d presets", len(presetDigests), len(names))
	}
	for _, name := range names {
		cfg, _ := config.Named(name)
		d, ok := presetDigests[cfg]
		if !ok {
			t.Fatalf("preset %s missing from the table", name)
		}
		if want := computeConfigDigest(cfg); d != want || ConfigDigest(cfg) != want {
			t.Errorf("%s: table digest %s, ConfigDigest %s, computed %s", name, d, ConfigDigest(cfg), want)
		}
	}

	base := config.MALEC()
	sampled := config.MALEC()
	sampled.Sampling = &config.Sampling{Warmup: 200, Detail: 800, Interval: 20000}
	rob := config.MALEC()
	rob.ROB++
	for _, v := range []struct {
		name string
		cfg  config.Config
	}{{"sampled", sampled}, {"ROB+1", rob}} {
		if _, ok := presetDigests[v.cfg]; ok {
			t.Errorf("%s MALEC hit the preset table", v.name)
		}
		got := ConfigDigest(v.cfg)
		if got != computeConfigDigest(v.cfg) {
			t.Errorf("%s MALEC: digest %s differs from its computation", v.name, got)
		}
		if got == ConfigDigest(base) {
			t.Errorf("%s MALEC shares MALEC's digest %s", v.name, got)
		}
	}
	if ConfigDigest(sampled) == ConfigDigest(rob) {
		t.Error("sampled and ROB+1 MALEC share a digest")
	}
}

// checkMemoBounded asserts that every memoized encoding belongs to a live
// cache entry.
func checkMemoBounded(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	for k := range e.encoded {
		if _, ok := e.cache[k]; !ok {
			t.Fatalf("memoized encoding of %s outlives its cache entry", k)
		}
	}
}

// TestResultJSONMemoEviction fills the memo under a two-entry cache and
// checks that no encoding outlives its entry, and that a result no longer
// cached is encoded correctly without being kept.
func TestResultJSONMemoEviction(t *testing.T) {
	e := New(Options{MaxCacheEntries: 2, Simulate: stubResult})
	cfg := config.MALEC()
	benches := []string{"gzip", "mcf", "art", "gap", "gzip"}
	for i, b := range benches {
		res, _ := e.RunTracked(cfg, b, 1000, 1)
		key := KeyFor(cfg, b, 1000, 1)
		data, err := e.ResultJSON(key, res)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(res)
		if !bytes.Equal(data, want) {
			t.Fatalf("ResultJSON(%s) = %s, want %s", key, data, want)
		}
		checkMemoBounded(t, e)
		if i > 0 {
			// The previous point is still cached; the one before it
			// was evicted along with its encoding.
			prev := KeyFor(cfg, benches[i-1], 1000, 1)
			if _, ok := e.Cached(prev); !ok {
				t.Fatalf("%s evicted early", prev)
			}
		}
	}
	e.mu.Lock()
	memo := len(e.encoded)
	e.mu.Unlock()
	if memo != 2 {
		t.Fatalf("memo holds %d encodings, want 2", memo)
	}

	evicted := KeyFor(cfg, "mcf", 1000, 1)
	if _, ok := e.Cached(evicted); ok {
		t.Fatal("mcf still cached")
	}
	res := stubResult(cfg, "mcf", 1000, 1)
	data, err := e.ResultJSON(evicted, res)
	if want, _ := json.Marshal(res); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("ResultJSON of an evicted point = %s, %v", data, err)
	}
	checkMemoBounded(t, e)
}

// TestResultJSONConcurrent hits shared and distinct keys from many
// goroutines while a small cache evicts continuously; meant for -race.
// Every encoding must match json.Marshal of its result, and the memo must
// stay within the cache.
func TestResultJSONConcurrent(t *testing.T) {
	e := New(Options{MaxCacheEntries: 4, Workers: 4, Simulate: stubResult})
	cfg := config.MALEC()
	const goroutines, iters = 16, 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Half the traffic shares two hot keys, half spreads
				// over distinct ones that keep the cache churning.
				seed := uint64(i / 2 % 2)
				if i%2 == 1 {
					seed = uint64(2 + (g*iters+i)%24)
				}
				res, _, err := e.RunContext(context.Background(), cfg, "gzip", 1000, seed)
				if err != nil {
					errs <- err
					return
				}
				data, err := e.ResultJSON(KeyFor(cfg, "gzip", 1000, seed), res)
				want, _ := json.Marshal(stubResult(cfg, "gzip", 1000, seed))
				if err != nil || !bytes.Equal(data, want) {
					errs <- fmt.Errorf("seed %d: ResultJSON = %s, %v; want %s", seed, data, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkMemoBounded(t, e)
}

// BenchmarkKeyFor times key derivation for a preset and for a config the
// preset table does not hold.
func BenchmarkKeyFor(b *testing.B) {
	custom := config.MALEC()
	custom.ROB++
	for _, v := range []struct {
		name string
		cfg  config.Config
	}{{"preset", config.MALEC()}, {"custom", custom}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				KeyFor(v.cfg, "gzip", 5000, 1)
			}
		})
	}
}
