package cpu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"malec/internal/config"
	"malec/internal/core"
	"malec/internal/mem"
	"malec/internal/trace"
)

// This file holds the reference implementations the production cycle loop
// is checked against: a full-ROB issue scan with per-entry readiness
// checks, and a plain cycle-by-cycle loop without the stall fast-forward.

// ready reports whether an instruction's producers have completed.
func (m *machine) ready(in *instr) bool {
	if d := uint64(in.rec.Dep1); d != 0 && d <= in.seq &&
		m.doneAt[(in.seq-d)%doneWindow] > m.cycle {
		return false
	}
	if d := uint64(in.rec.Dep2); d != 0 && d <= in.seq &&
		m.doneAt[(in.seq-d)%doneWindow] > m.cycle {
		return false
	}
	return true
}

// issueScan is the reference issue path: a scan over the whole ROB, oldest
// first, selecting instructions by their producers' recorded completion
// times. Dispatch and complete always maintain the wakeup scheduler, so the
// scan keeps that bookkeeping consistent exactly where tryIssueSlot does
// (ready-mask clear, store-ring advance, wakeup-list drain); the selection
// itself never reads it.
func (m *machine) issueScan() int {
	issued := 0
	storeBlocked := false
	for i := 0; i < m.robLen; i++ {
		if issued >= m.cfg.IssueWidth {
			return issued
		}
		in := m.robAt(i)
		if in.issued || !m.ready(in) {
			if !in.issued && in.rec.Kind == trace.Store {
				storeBlocked = true
			}
			continue
		}
		switch in.rec.Kind {
		case trace.Op, trace.Branch:
			in.done = m.cycle + 1
		case trace.Load:
			if !m.iface.TryIssue(core.Request{Seq: in.seq, Kind: mem.Load,
				VA: in.rec.Addr, Size: in.rec.Size}) {
				continue
			}
			in.done = unknownDone
		case trace.Store:
			if storeBlocked {
				continue // an older store has not issued yet
			}
			if !m.iface.TryIssue(core.Request{Seq: in.seq, Kind: mem.Store,
				VA: in.rec.Addr, Size: in.rec.Size}) {
				storeBlocked = true
				continue
			}
			m.storeQHead++
			in.done = m.cycle + 1
		}
		in.issued = true
		m.doneAt[in.seq%doneWindow] = in.done
		issued++
		slot := (m.robHead + uint64(i)) & m.robMask
		m.readyMask[slot>>6] &^= 1 << (slot & 63)
		if in.done != unknownDone {
			m.wakeSlot(slot, in.done) // loads wake dependents on completion
		}
	}
	return issued
}

// runReference is the reference cycle loop: run without the stop and
// cancellation checks or the deadlock detector, issuing through issueScan
// when scan is set and fast-forwarding stalls only when skip is set.
func (m *machine) runReference(scan, skip bool) {
	for {
		if m.cycle > 1<<28 {
			panic("cpu: reference loop did not finish\n" + m.stateDump())
		}
		m.cycle++
		progressed := false
		for _, c := range m.iface.Tick() {
			m.complete(c.Seq)
			progressed = true
		}
		if m.retire() > 0 {
			progressed = true
		}
		issue := m.issue
		if scan {
			issue = m.issueScan
		}
		if issue() > 0 {
			progressed = true
		}
		before := m.instructions
		m.dispatch()
		if m.instructions != before {
			progressed = true
		}
		if m.srcDone && m.robLen == 0 {
			m.iface.Flush()
			if m.iface.Pending() == 0 && m.iface.Idle() {
				return
			}
		}
		if !progressed && skip {
			m.trySkip()
		}
	}
}

// referenceModes are the reference combinations each production run is
// compared against: every one differs from Run (wakeup issue + skipping)
// in at least one mechanism.
var referenceModes = []struct {
	name       string
	scan, skip bool
}{
	{"scan+plain", true, false},
	{"wakeup+plain", false, false},
	{"scan+skip", true, true},
}

// runReferenceResult simulates src through the reference loop.
func runReferenceResult(cfg config.Config, benchmark string, src Source, scan, skip bool) Result {
	m := newMachine(cfg, core.New(cfg), src)
	m.runReference(scan, skip)
	return m.result(benchmark)
}

// assertMatchesReference runs records through Run and through every
// reference mode and requires byte-identical Result JSON.
func assertMatchesReference(t *testing.T, cfg config.Config, name string, recs []trace.Record) {
	t.Helper()
	want, err := json.Marshal(Run(cfg, name, &SliceSource{Records: recs}))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range referenceModes {
		ref := runReferenceResult(cfg, name, &SliceSource{Records: recs}, mode.scan, mode.skip)
		got, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s/%s: %s reference differs from Run (cycles %d)",
				cfg.Name, name, mode.name, ref.Cycles)
		}
	}
}

// TestWakeupMatchesScanOnMicroTraces pins the production loop against the
// references on handcrafted corner-case traces: dependency chains, loads,
// store ordering under a full store buffer, and dual deps on one producer.
func TestWakeupMatchesScanOnMicroTraces(t *testing.T) {
	mixed := make([]trace.Record, 0, 4000)
	for i := 0; i < 1000; i++ {
		mixed = append(mixed,
			trace.Record{Kind: trace.Load, Addr: mem.Addr(i*64) % (1 << 18), Size: 8},
			trace.Record{Kind: trace.Op, Dep1: 1, Dep2: 2},
			trace.Record{Kind: trace.Store, Addr: mem.Addr(i*8) % (1 << 12), Size: 8, Dep1: 1},
			// Both deps on one producer (the load 3 back): registers two
			// wakeup nodes on the same list and decrements pendingDeps
			// twice in one drain.
			trace.Record{Kind: trace.Op, Dep1: 3, Dep2: 3},
		)
	}
	traces := map[string][]trace.Record{
		"chain": chain(2000),
		"mixed": mixed,
	}
	for name, recs := range traces {
		assertMatchesReference(t, config.MALEC(), name, recs)
	}
}

// TestRunMatchesReferenceLoop is the generated-trace differential: five
// interface variants over paper and stall-heavy stress workloads and two
// seeds, 20k instructions each.
func TestRunMatchesReferenceLoop(t *testing.T) {
	const instructions = 20000
	configs := []config.Config{
		config.Base1ldst(),
		config.Base2ld1st(),
		config.MALEC(),
		config.MALECWithWDU(16),
		config.MALECBypass(),
	}
	benchmarks := append([]string{"gzip", "mcf", "swim"}, trace.StressBenchmarks...)
	for _, bench := range benchmarks {
		for _, seed := range []uint64{1, 2} {
			recs := trace.NewGenerator(trace.Profiles[bench], seed).Generate(instructions)
			for _, cfg := range configs {
				assertMatchesReference(t, cfg, fmt.Sprintf("%s/seed=%d", bench, seed), recs)
			}
		}
	}
}
