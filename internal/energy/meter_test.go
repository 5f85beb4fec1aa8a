package energy

import (
	"math"
	"testing"

	"malec/internal/rng"
)

// events is the event interface shared by the Meter and the eager
// reference meter.
type events interface {
	L1ConventionalRead(ways int)
	L1ReducedRead()
	L1Write(ways int)
	L1ReducedWrite()
	L1MissCheck(ways int)
	L1Fill()
	L1Eviction()
	UTLBLookup()
	TLBLookup()
	ReverseLookups(utlb, tlb bool)
	UWTRead()
	WTRead()
	UWTLineUpdate()
	WTLineUpdate()
	EntryTransfer()
	WDULookup()
	WDUUpdate()
}

// eagerMeter is the reference meter: it accumulates each event's energy
// into a float64 per component as the event happens (one multiply-add per
// event) instead of counting events and pricing them at Finish.
type eagerMeter struct {
	p         Params
	ports     Ports
	dynMulL1  float64
	dynMulTLB float64
	dyn       [numComponents]float64
}

func newEagerMeter(p Params, ports Ports) *eagerMeter {
	m := NewMeter(p, ports)
	return &eagerMeter{p: p, ports: ports, dynMulL1: m.dynMulL1, dynMulTLB: m.dynMulTLB}
}

func (m *eagerMeter) L1ConventionalRead(ways int) {
	m.dyn[L1] += m.dynMulL1 * (m.p.L1Control + m.p.L1TagFixed +
		float64(ways)*m.p.L1TagPerWay + m.p.L1DataFixed +
		float64(ways)*m.p.L1DataPerWay)
}

func (m *eagerMeter) L1ReducedRead() {
	m.dyn[L1] += m.dynMulL1 * (m.p.L1Control + m.p.L1DataFixed + m.p.L1DataPerWay)
}

func (m *eagerMeter) L1Write(ways int) {
	m.dyn[L1] += m.dynMulL1 * (m.p.L1Control + m.p.L1TagFixed +
		float64(ways)*m.p.L1TagPerWay + m.p.L1DataFixed + m.p.L1DataPerWay)
}

func (m *eagerMeter) L1ReducedWrite() {
	m.dyn[L1] += m.dynMulL1 * (m.p.L1Control + m.p.L1DataFixed + m.p.L1DataPerWay)
}

func (m *eagerMeter) L1MissCheck(ways int) {
	m.dyn[L1] += m.dynMulL1 * (m.p.L1Control + m.p.L1TagFixed +
		float64(ways)*m.p.L1TagPerWay)
}

func (m *eagerMeter) L1Fill() {
	m.dyn[L1] += m.dynMulL1 * (m.p.L1Control + m.p.L1TagFixed + m.p.L1TagPerWay +
		m.p.L1DataFixed + 4*m.p.L1DataPerWay)
}

func (m *eagerMeter) L1Eviction() {
	m.dyn[L1] += m.dynMulL1 * (m.p.L1Control + m.p.L1DataFixed + 2*m.p.L1DataPerWay)
}

func (m *eagerMeter) UTLBLookup() { m.dyn[UTLB] += m.dynMulTLB * m.p.UTLBLookup }

func (m *eagerMeter) TLBLookup() { m.dyn[TLB] += m.dynMulTLB * m.p.TLBLookup }

func (m *eagerMeter) ReverseLookups(utlb, tlb bool) {
	if utlb {
		m.dyn[UTLB] += m.dynMulTLB * m.p.UTLBReverse
	}
	if tlb {
		m.dyn[TLB] += m.dynMulTLB * m.p.TLBReverse
	}
}

func (m *eagerMeter) UWTRead() { m.dyn[UWT] += m.p.UWTRead }

func (m *eagerMeter) WTRead() { m.dyn[WT] += m.p.WTRead }

func (m *eagerMeter) UWTLineUpdate() { m.dyn[UWT] += m.p.UWTLineUpdate }

func (m *eagerMeter) WTLineUpdate() { m.dyn[WT] += m.p.WTLineUpdate }

func (m *eagerMeter) EntryTransfer() {
	m.dyn[UWT] += m.p.EntryTransfer / 2
	m.dyn[WT] += m.p.EntryTransfer / 2
}

func (m *eagerMeter) WDULookup() {
	m.dyn[WDU] += m.p.WDULookupBase + m.p.WDULookupPerEntry*float64(m.ports.WDUEntries)
}

func (m *eagerMeter) WDUUpdate() { m.dyn[WDU] += m.p.WDUUpdate }

// feedRandom drives the identical pseudo-random event stream into every
// meter.
func feedRandom(drv *rng.Source, ms []events, n int) {
	for i := 0; i < n; i++ {
		op := drv.Intn(18)
		ways := 1 + drv.Intn(8)
		for _, m := range ms {
			switch op {
			case 0:
				m.L1ConventionalRead(ways)
			case 1:
				m.L1ReducedRead()
			case 2:
				m.L1Write(ways)
			case 3:
				m.L1ReducedWrite()
			case 4:
				m.L1MissCheck(ways)
			case 5:
				m.L1Fill()
			case 6:
				m.L1Eviction()
			case 7:
				m.UTLBLookup()
			case 8:
				m.TLBLookup()
			case 9:
				m.ReverseLookups(true, false)
			case 10:
				m.ReverseLookups(false, true)
			case 11:
				m.UWTRead()
			case 12:
				m.WTRead()
			case 13:
				m.UWTLineUpdate()
			case 14:
				m.WTLineUpdate()
			case 15:
				m.EntryTransfer()
			case 16:
				m.WDULookup()
			case 17:
				m.WDUUpdate()
			}
		}
	}
}

// TestDeferredMatchesEagerRandomized bounds the deferred event-count
// pricing against the per-event float accumulation reference at 1e-9
// relative error for arbitrary event mixes, including varying ways
// arguments (the deferred path prices the summed ways, which is exact up
// to association for any mix).
func TestDeferredMatchesEagerRandomized(t *testing.T) {
	for _, ports := range []Ports{
		{},
		{HasWayTables: true},
		{L1ExtraPorts: 1, TLBExtraPorts: 2},
		{WDUEntries: 16, WDUPorts: 4},
	} {
		deferred := NewMeter(DefaultParams(), ports)
		eager := newEagerMeter(DefaultParams(), ports)
		feedRandom(rng.New(31), []events{deferred, eager}, 200000)
		bd := deferred.Finish(1_000_000)
		for c := Component(0); c < numComponents; c++ {
			d, e := bd.Dynamic[c], eager.dyn[c]
			if d == e {
				continue
			}
			rel := math.Abs(d-e) / math.Max(math.Abs(d), math.Abs(e))
			if rel > 1e-9 {
				t.Errorf("ports %+v component %v: deferred %v vs eager %v (rel err %g)",
					ports, c, d, e, rel)
			}
		}
	}
}

// TestFinishIdempotent pins that Finish is a pure pricing of the counters:
// calling it twice yields identical breakdowns (the engine and the
// experiment drivers may both inspect a result).
func TestFinishIdempotent(t *testing.T) {
	m := NewMeter(DefaultParams(), Ports{HasWayTables: true})
	feedRandom(rng.New(5), []events{m}, 10000)
	b1 := m.Finish(1000)
	b2 := m.Finish(1000)
	if b1 != b2 {
		t.Fatal("Finish is not idempotent")
	}
}

// BenchmarkMeter measures the meter's per-event hot path (the cost paid on
// every L1/TLB/way-table access of a simulation) and the one-time Finish
// pricing.
func BenchmarkMeter(b *testing.B) {
	b.Run("deferred", func(b *testing.B) {
		m := NewMeter(DefaultParams(), Ports{HasWayTables: true})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.UTLBLookup()
			m.L1ConventionalRead(4)
			m.UWTRead()
			m.L1Fill()
		}
		_ = m.Finish(uint64(b.N))
	})
	b.Run("finish", func(b *testing.B) {
		m := NewMeter(DefaultParams(), Ports{HasWayTables: true})
		feedRandom(rng.New(9), []events{m}, 10000)
		b.ReportAllocs()
		b.ResetTimer()
		var total float64
		for i := 0; i < b.N; i++ {
			total += m.Finish(1000).Total()
		}
		_ = total
	})
}
