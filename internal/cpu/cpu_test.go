package cpu

import (
	"fmt"
	"strings"
	"testing"

	"malec/internal/config"
	"malec/internal/mem"
	"malec/internal/trace"
)

// chain builds n ops each depending on its predecessor.
func chain(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Kind: trace.Op}
		if i > 0 {
			recs[i].Dep2 = 1
		}
	}
	return recs
}

func TestSerialChainThroughput(t *testing.T) {
	n := 1000
	res := Run(config.Base1ldst(), "chain", &SliceSource{Records: chain(n)})
	// A distance-1 dependency chain must execute at ~1 op/cycle.
	if res.Cycles < uint64(n) {
		t.Fatalf("serial chain of %d ops finished in %d cycles; dependencies not enforced", n, res.Cycles)
	}
	if res.Cycles > uint64(n)+100 {
		t.Fatalf("serial chain of %d ops took %d cycles; unexpected stalls", n, res.Cycles)
	}
}

func TestIndependentOpsThroughput(t *testing.T) {
	n := 6000
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Kind: trace.Op}
	}
	res := Run(config.Base1ldst(), "par", &SliceSource{Records: recs})
	// Independent ops are dispatch-bound: ~FetchWidth per cycle.
	minCycles := uint64(n / config.Base1ldst().FetchWidth)
	if res.Cycles < minCycles {
		t.Fatalf("%d independent ops in %d cycles: exceeds fetch width", n, res.Cycles)
	}
	if res.Cycles > minCycles*2 {
		t.Fatalf("%d independent ops took %d cycles (expected near %d)", n, res.Cycles, minCycles)
	}
}

func TestLoadUseLatency(t *testing.T) {
	// load -> dependent op chain: each pair costs at least the L1 latency.
	n := 500
	recs := make([]trace.Record, 0, 2*n)
	for i := 0; i < n; i++ {
		recs = append(recs,
			trace.Record{Kind: trace.Load, Addr: mem.Addr(i*8) % (1 << 14), Size: 8, Dep1: 1},
			trace.Record{Kind: trace.Op, Dep2: 1},
		)
	}
	// Dep1:1 on each load serializes loads behind the previous op, which
	// depends on the previous load: a full load->use->load chain.
	cfg := config.Base1ldst()
	res := Run(cfg, "ldchain", &SliceSource{Records: recs})
	perPair := float64(res.Cycles) / float64(n)
	if perPair < float64(cfg.L1Latency) {
		t.Fatalf("load-use chain ran at %.2f cycles/pair; want >= %d (L1 latency)", perPair, cfg.L1Latency)
	}
}

func TestDeterminism(t *testing.T) {
	a := RunBenchmark(config.MALEC(), "gzip", 20000, 7)
	b := RunBenchmark(config.MALEC(), "gzip", 20000, 7)
	if a.Cycles != b.Cycles || a.Energy.Total() != b.Energy.Total() {
		t.Fatalf("simulation is not deterministic: %d/%d cycles, %f/%f pJ",
			a.Cycles, b.Cycles, a.Energy.Total(), b.Energy.Total())
	}
}

// mustPanic runs f and returns the recovered panic message, failing the
// test if f returns normally.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		t.Fatal("expected panic, got normal return")
	}()
	return msg
}

func TestOversizedROBRejected(t *testing.T) {
	// The completion-time ring holds doneWindow entries; a ROB so large
	// that an in-window dependency could alias a younger instruction's
	// slot must be rejected at construction, not corrupt silently.
	cfg := config.MALEC()
	cfg.ROB = doneWindow - trace.MaxDepWindow
	msg := mustPanic(t, func() {
		Run(cfg, "huge", &SliceSource{Records: chain(10)})
	})
	if !strings.Contains(msg, "completion window") {
		t.Fatalf("panic message %q does not explain the completion-window bound", msg)
	}
	cfg.ROB = 0
	mustPanic(t, func() { Run(cfg, "zero", &SliceSource{Records: chain(10)}) })

	// One below the bound must construct and run fine.
	cfg.ROB = doneWindow - trace.MaxDepWindow - 1
	if res := Run(cfg, "ok", &SliceSource{Records: chain(100)}); res.Instructions != 100 {
		t.Fatalf("near-limit ROB simulated %d instructions, want 100", res.Instructions)
	}
}

func TestOversizedDepDistanceRejected(t *testing.T) {
	// A custom trace whose dependency reaches beyond the aliasing-safe
	// window must panic at dispatch rather than read a corrupted
	// completion time.
	recs := make([]trace.Record, doneWindow+10)
	for i := range recs {
		recs[i] = trace.Record{Kind: trace.Op}
	}
	recs[len(recs)-1].Dep1 = doneWindow - 1
	msg := mustPanic(t, func() {
		Run(config.MALEC(), "fardep", &SliceSource{Records: recs})
	})
	if !strings.Contains(msg, "dependency distance") {
		t.Fatalf("panic message %q does not name the dependency distance", msg)
	}

	// A huge distance reaching past the trace start is pre-history, not
	// aliasing: it must still be accepted and ignored.
	early := chain(50)
	early[3].Dep1 = doneWindow - 1
	if res := Run(config.MALEC(), "prehist", &SliceSource{Records: early}); res.Instructions != 50 {
		t.Fatalf("pre-history dependency run simulated %d instructions, want 50", res.Instructions)
	}
}
