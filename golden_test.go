package malec

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// updateGolden regenerates testdata/golden_results.json from the current
// simulator. Run `go test -run TestGoldenResults -update` only when an
// intentional model change is made; the file otherwise pins the exact
// Result JSON (counters included) across refactors.
var updateGolden = flag.Bool("update", false, "rewrite golden result files")

const goldenPath = "testdata/golden_results.json"

// gridPoint is one config x benchmark x seed simulation point.
type gridPoint struct {
	Cfg   Config
	Bench string
	Seed  uint64
}

// pointGrid crosses configs, benchmarks and seeds 1 and 2, in that
// nesting order.
func pointGrid(configs []Config, benchmarks []string) []gridPoint {
	var grid []gridPoint
	for _, c := range configs {
		for _, b := range benchmarks {
			for _, s := range []uint64{1, 2} {
				grid = append(grid, gridPoint{c, b, s})
			}
		}
	}
	return grid
}

// goldenConfigs are all three interface variants plus the WDU, segmented
// way-table and bypass extensions, so every counter family appears.
func goldenConfigs() []Config {
	return []Config{
		Base1ldst(),
		Base2ld1st(),
		MALEC(),
		MALECWithWDU(16),
		MALECSegmentedWT(16, 0.5),
		MALECBypass(),
	}
}

// goldenGrid is the fixed grid testdata/golden_results.json covers.
func goldenGrid() []gridPoint {
	return pointGrid(goldenConfigs(), []string{"gzip", "swim", "djpeg"})
}

const goldenInstructions = 20000

// goldenBytes runs the golden grid and renders every Result as indented
// JSON, one labelled block per point, concatenated in grid order.
func goldenBytes(t testing.TB) []byte {
	var buf bytes.Buffer
	for _, g := range goldenGrid() {
		r := Run(g.Cfg, g.Bench, goldenInstructions, g.Seed)
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatalf("marshal %s/%s/%d: %v", g.Cfg.Name, g.Bench, g.Seed, err)
		}
		fmt.Fprintf(&buf, "=== %s %s seed=%d n=%d\n", g.Cfg.Name, g.Bench, g.Seed, goldenInstructions)
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestGoldenResults proves the Result JSON — counters included — is
// byte-identical to the committed pre-refactor output for a fixed
// config/benchmark/seed grid.
func TestGoldenResults(t *testing.T) {
	got := goldenBytes(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		line := 1
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("golden mismatch at byte %d (line %d): got %q, want %q",
					i, line, excerpt(got, i), excerpt(want, i))
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("golden length mismatch: got %d bytes, want %d", len(got), len(want))
	}
}

// excerpt returns a short window of b around offset i for mismatch reports.
func excerpt(b []byte, i int) string {
	lo, hi := i-40, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return string(b[lo:hi])
}

const gridGoldenPath = "testdata/golden_grid.txt"

// gridGoldenPoints is the broad golden grid: every paper benchmark plus the
// stress profiles.
func gridGoldenPoints() []gridPoint {
	return pointGrid(goldenConfigs(), append(Benchmarks(), StressBenchmarks()...))
}

// gridGoldenBytes runs the golden grid in parallel and renders one line per
// point, in grid order: config, benchmark, seed, cycles, total pJ and the
// SHA-256 of the point's Result JSON.
func gridGoldenBytes(t testing.TB) []byte {
	grid := gridGoldenPoints()
	lines := make([]string, len(grid))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				g := grid[i]
				r := Run(g.Cfg, g.Bench, goldenInstructions, g.Seed)
				data, err := json.Marshal(r)
				if err != nil {
					t.Errorf("marshal %s/%s/%d: %v", g.Cfg.Name, g.Bench, g.Seed, err)
					continue
				}
				lines[i] = fmt.Sprintf("%s %s %d %d %s %x\n", g.Cfg.Name, g.Bench, g.Seed,
					r.Cycles, strconv.FormatFloat(r.Energy.Total(), 'g', -1, 64), sha256.Sum256(data))
			}
		}()
	}
	for i := range grid {
		next <- i
	}
	close(next)
	wg.Wait()
	return []byte(strings.Join(lines, ""))
}

// TestGoldenGrid pins cycles, total energy and the full Result JSON hash of
// every point of the broad golden grid. The file was recorded where every
// simulator fast path agreed with its reference, so it holds the references'
// answers too. Regenerate with `go test -run TestGoldenGrid -update` only
// for an intentional model change.
func TestGoldenGrid(t *testing.T) {
	got := gridGoldenBytes(t)
	if *updateGolden {
		if err := os.WriteFile(gridGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", gridGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(gridGoldenPath)
	if err != nil {
		t.Fatalf("read golden grid (regenerate with -update): %v", err)
	}
	gotLines := strings.SplitAfter(string(got), "\n")
	wantLines := strings.SplitAfter(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden grid has %d lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("golden grid line %d:\n got  %s want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
