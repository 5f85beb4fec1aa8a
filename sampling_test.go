package malec

import (
	"math"
	"testing"
)

// samplingGrid is the config x benchmark x seed grid the sampled
// differential test covers: all three interface kinds plus the WDU and
// bypass extensions, over paper workloads and the stall-heavy stress
// profiles.
func samplingGrid() []gridPoint {
	configs := []Config{Base1ldst(), Base2ld1st(), MALEC(), MALECWithWDU(16), MALECBypass()}
	return pointGrid(configs, append([]string{"gzip", "mcf", "swim"}, StressBenchmarks()...))
}

// relErr returns |a-b| / max(|a|, |b|), 0 when both are zero.
func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / m
}

// samplingTestSchedule is a scaled-down schedule (same 1%-detail ratio as
// DefaultSampling) so the grid differential stays fast: 10 measurement
// windows over a 200k-instruction run.
func samplingTestSchedule() *Sampling {
	return &Sampling{Warmup: 200, Detail: 800, Interval: 20000}
}

// TestSampledDifferentialGrid runs the sampling grid (five interface
// variants, paper + stress workloads, two seeds) through both the exact and
// the sampled path and checks the contract of the estimate:
//
//   - the instruction-stream statistics (instructions, loads, stores) are
//     exact, not estimated, and match the reference run;
//   - the extrapolated cycle and energy totals are within a small relative
//     error of the exact run, bounded by the reported 95% confidence
//     interval plus a slack term for the non-statistical bias the CI cannot
//     see (cold-start transients inside each burst);
//   - the estimate metadata (window count, schedule echo) is consistent.
func TestSampledDifferentialGrid(t *testing.T) {
	const instructions = 200000
	sch := samplingTestSchedule()
	nWin := instructions / sch.Interval
	for _, g := range samplingGrid() {
		exact := Run(g.Cfg, g.Bench, instructions, g.Seed)
		scfg := g.Cfg
		scfg.Sampling = sch
		sampled := Run(scfg, g.Bench, instructions, g.Seed)

		if sampled.Sampling == nil {
			t.Fatalf("%s/%s/seed=%d: sampled path did not engage", g.Cfg.Name, g.Bench, g.Seed)
		}
		est := sampled.Sampling
		if est.Windows != nWin || est.Warmup != sch.Warmup || est.Detail != sch.Detail || est.Interval != sch.Interval {
			t.Errorf("%s/%s/seed=%d: estimate metadata %+v does not echo schedule %+v/%d windows",
				g.Cfg.Name, g.Bench, g.Seed, est, sch, nWin)
		}
		if sampled.Instructions != exact.Instructions ||
			sampled.Loads != exact.Loads || sampled.Stores != exact.Stores {
			t.Errorf("%s/%s/seed=%d: stream counts drifted: instr %d/%d loads %d/%d stores %d/%d",
				g.Cfg.Name, g.Bench, g.Seed,
				sampled.Instructions, exact.Instructions,
				sampled.Loads, exact.Loads, sampled.Stores, exact.Stores)
		}

		cycleErr := relErr(float64(sampled.Cycles), float64(exact.Cycles))
		energyErr := relErr(sampled.Energy.Total(), exact.Energy.Total())
		cycleBound := 3*est.CPIRelHalfWidth + 0.03
		energyBound := 3*est.EnergyRelHalfWidth + 0.03
		if cycleErr > cycleBound {
			t.Errorf("%s/%s/seed=%d: cycle error %.4f exceeds bound %.4f (sampled %d, exact %d)",
				g.Cfg.Name, g.Bench, g.Seed, cycleErr, cycleBound, sampled.Cycles, exact.Cycles)
		}
		if energyErr > energyBound {
			t.Errorf("%s/%s/seed=%d: energy error %.4f exceeds bound %.4f",
				g.Cfg.Name, g.Bench, g.Seed, energyErr, energyBound)
		}
	}
}

// TestSamplingShortRunFallsBack checks that runs shorter than one interval
// silently use the exact path: same Result as without a schedule.
func TestSamplingShortRunFallsBack(t *testing.T) {
	scfg := MALEC()
	scfg.Sampling = samplingTestSchedule()
	short := Run(scfg, "gzip", scfg.Sampling.Interval-1, 1)
	if short.Sampling != nil {
		t.Fatal("sub-interval run produced a sampling estimate")
	}
	ref := Run(MALEC(), "gzip", scfg.Sampling.Interval-1, 1)
	if short.Cycles != ref.Cycles || short.Energy != ref.Energy {
		t.Fatalf("sub-interval fallback diverged from exact run: %d vs %d cycles",
			short.Cycles, ref.Cycles)
	}
}
