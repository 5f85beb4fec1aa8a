package main

// sim-exact: engine.RunCampaign on a fresh in-memory engine with exact
// simulation. The core model, trace generation and the memory side do
// almost all the work; the engine only schedules 55 points.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
)

// simBenchmarks are three benchmarks from each paper suite (SPEC-INT,
// SPEC-FP, MediaBench2) plus the two memory-side stress profiles.
var simBenchmarks = []string{"gzip", "gcc", "mcf", "swim", "art", "equake",
	"cjpeg", "h264enc", "mpeg2dec", "ptrchase", "tlbthrash"}

const (
	// simInstructions is the instruction count of one timed point.
	simInstructions = 150_000
	// simWarmInstructions is the instruction count of the set-up's
	// warm-up grid, which always runs at seed 1 and is checked against
	// simWarmDigest.
	simWarmInstructions = 10_000
	// simWarmDigest is the SHA-256 of the warm-up grid's CSV export
	// (Fig4Configs x simBenchmarks, seed 1, simWarmInstructions).
	simWarmDigest = "bff3aa81fe0cb7fe7144105694aac8370ee26d917849d4f75e130f9862a71fb4"
	// simDefaultDigest is the SHA-256 of the timed grid's CSV export at
	// seed 1 and scale 1.
	simDefaultDigest = "8c955cd6b8659d4fca93b901cffc02047a477afae5feea806937ce1f3c0a7a5a"
)

// simSpec is the Fig4Configs x simBenchmarks grid at one seed.
func simSpec(seed uint64, instructions int) engine.CampaignSpec {
	return engine.CampaignSpec{
		Configs:      config.Fig4Configs(),
		Benchmarks:   simBenchmarks,
		Instructions: instructions,
		Seeds:        []uint64{seed},
	}
}

// csvDigest returns the hex SHA-256 of a campaign's CSV export.
func csvDigest(c *engine.Campaign) (string, error) {
	data, err := c.CSV()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func simExact(b *bench) (*outcome, error) {
	o := &outcome{}
	_, closeSetup, err := setups(o, 5, func() (struct{}, func(), error) {
		eng := engine.New(engine.Options{})
		camp, err := eng.RunCampaign(simSpec(1, simWarmInstructions))
		if err != nil {
			return struct{}{}, nil, err
		}
		digest, err := csvDigest(camp)
		if err != nil {
			return struct{}{}, nil, err
		}
		o.attempted += len(camp.Results)
		if digest != simWarmDigest {
			o.failed += len(camp.Results)
			fmt.Printf("# sim-exact: warm-up grid digest %s, want %s\n", digest, simWarmDigest)
		}
		return struct{}{}, func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	closeSetup()

	instr := b.scaled(simInstructions, 2000)
	var (
		first     *engine.Campaign
		firstRows [][]byte
	)
	err = b.timed(o, 2, func(int) (float64, error) {
		eng := engine.New(engine.Options{})
		b.watch(eng)
		var lat []float64
		start := time.Now()
		spec := simSpec(b.seed, instr)
		spec.Progress = func(_, _ int, _ engine.Job) {
			lat = append(lat, ms(time.Since(start)))
		}
		camp, err := eng.RunCampaign(spec)
		wall := time.Since(start).Seconds()
		b.absorbEngine(eng)
		if err != nil {
			return 0, err
		}
		data, err := camp.CSV()
		if err != nil {
			return 0, err
		}
		rows := bytes.Split(data, []byte("\n"))
		if first == nil {
			first, firstRows = camp, rows
		} else {
			// Every unit recomputes the grid on a fresh engine; the
			// simulator is deterministic, so every row must repeat.
			for i := range rows {
				if i >= len(firstRows) || !bytes.Equal(rows[i], firstRows[i]) {
					o.failed++
				}
			}
		}
		o.attempted += len(camp.Results)
		o.unit(len(camp.Results), wall, lat)
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	digest, err := csvDigest(first)
	if err != nil {
		return nil, err
	}
	if b.seed == 1 && instr == simInstructions && digest != simDefaultDigest {
		o.failed += len(first.Results)
		fmt.Printf("# sim-exact: seed-1 grid digest %s, want %s\n", digest, simDefaultDigest)
	}
	// The campaign path (shared trace cache, scheduler) must agree with
	// the direct simulator call on a few points the seed picks.
	rng := rand.New(rand.NewPCG(b.seed, 0x5eed))
	for k := 0; k < 3; k++ {
		jr := first.Results[rng.IntN(len(first.Results))]
		want := cpu.RunBenchmark(jr.Config, jr.Benchmark, jr.Instructions, jr.Seed)
		o.attempted++
		if !sameResult(jr.Result, want) {
			o.failed++
			fmt.Printf("# sim-exact: %s/%s differs from a direct cpu.RunBenchmark\n", jr.ConfigName, jr.Benchmark)
		}
	}

	minstr := float64(instr) * float64(len(first.Results)) / median(o.walls) / 1e6
	o.extra = append(o.extra,
		metric{"points_per_s", median(o.rates), "1/s"},
		metric{"sim_minstr_per_s", minstr, "Minstr/s"},
		metric{"grid_points", float64(len(first.Results)), "count"})
	fmt.Printf("# sim-exact: grid digest %s\n", digest)
	return o, nil
}

// sameResult reports whether two results encode to the same JSON, which
// covers every semantic field (host telemetry is excluded from JSON).
func sameResult(a, b cpu.Result) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
