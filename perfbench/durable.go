package main

// durable-sampled: the workload that writes to disk. Phase A submits a
// sampled grid to a malecd with a journal and a fresh cache directory,
// reads the results over the NDJSON stream and exports the CSV. Phase B
// restarts over the same directory: a new engine and manager replay the
// journal, the replayed campaign is exported again, a grid of core-side
// variants sharing MALEC's memory-side digest restores warmed checkpoints
// from disk, and the phase-A grid is submitted again and served from the
// result store.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"malec/internal/config"
)

const (
	// durableInstructions is the instruction count of one sampled point.
	durableInstructions = 600_000
)

var (
	// durableConfigs is the phase-A grid's configurations.
	durableConfigs = []string{"Base1ldst", "Base2ld1st", "MALEC"}
	// durableVariants differ from MALEC only core-side, so they share its
	// memory-side digest and restore its checkpoints in phase B.
	durableVariants = []string{"MALEC_3cycleL1", "MALEC_noMerge"}
	// durableBenchmarks is one or two benchmarks per paper suite.
	durableBenchmarks = []string{"gzip", "mcf", "art", "cjpeg"}
)

// durableSchedule is the sampling schedule: six windows per point, one
// warm-up and one detail burst per interval.
func durableSchedule(b *bench) *config.Sampling {
	interval := b.scaled(durableInstructions, 20_000) / 6
	return &config.Sampling{Warmup: interval / 100, Detail: interval / 25, Interval: interval}
}

func durableSampled(b *bench) (*outcome, error) {
	o := &outcome{}
	client := newClient(2)
	sched := durableSchedule(b)
	instr := b.scaled(durableInstructions, 20_000)
	gridA := gridBody{Configs: durableConfigs, Benchmarks: durableBenchmarks,
		Instructions: instr, Seeds: []uint64{b.seed}, Sampling: sched}
	gridB := gridA
	gridB.Configs = durableVariants

	warm := gridBody{Configs: []string{"MALEC"}, Benchmarks: []string{"gzip", "mcf"},
		Instructions: instr, Seeds: []uint64{b.seed}, Sampling: sched}
	k := 0
	_, closeSetup, err := setups(o, 5, func() (struct{}, func(), error) {
		k++
		dir := filepath.Join(b.dir, fmt.Sprintf("durable-setup-%d", k))
		defer os.RemoveAll(dir)
		n, err := startNode(nodeConfig{cacheDir: dir})
		if err != nil {
			return struct{}{}, nil, err
		}
		defer n.close()
		run, err := runCampaign(client, n.url, warm)
		if err == nil {
			err = waitJournalDone(dir, run.id)
		}
		if err != nil {
			return struct{}{}, nil, err
		}
		o.attempted += run.records
		o.failed += run.failed
		return struct{}{}, func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	closeSetup()

	var resume, replay []float64
	err = b.timed(o, 2, func(i int) (float64, error) {
		dir := filepath.Join(b.dir, fmt.Sprintf("durable-%d", i))
		defer os.RemoveAll(dir)
		start := time.Now()
		nA, err := startNode(nodeConfig{cacheDir: dir})
		if err != nil {
			return 0, err
		}
		b.watch(nA.eng)
		runA, err := runCampaign(client, nA.url, gridA)
		if err == nil {
			err = waitJournalDone(dir, runA.id)
		}
		nA.close()
		b.absorbNode(nA)
		if err != nil {
			return 0, err
		}

		restart := time.Now()
		nB, err := startNode(nodeConfig{cacheDir: dir})
		if err != nil {
			return 0, err
		}
		b.watch(nB.eng)
		defer b.absorbNode(nB)
		defer nB.close()
		replay = append(replay, ms(nB.replay))
		again, err := exportCSV(client, nB.url, runA.id)
		if err != nil {
			return 0, err
		}
		runV, err := runCampaign(client, nB.url, gridB)
		if err != nil {
			return 0, err
		}
		runR, err := runCampaign(client, nB.url, gridA)
		if err != nil {
			return 0, err
		}
		wall := time.Since(start).Seconds()
		resume = append(resume, time.Since(restart).Seconds())
		// Let the journal writers finish before the directory goes.
		for _, run := range []*campaignRun{runV, runR} {
			if err := waitJournalDone(dir, run.id); err != nil {
				return 0, err
			}
		}

		// The replayed campaign's export and the store-served rerun must
		// be byte-identical to phase A's export.
		pointsA := gridA.points()
		o.attempted += 2 * pointsA
		if !bytes.Equal(again, runA.csv) {
			o.failed += pointsA
		}
		if !bytes.Equal(runR.csv, runA.csv) {
			o.failed += pointsA
		}
		var lat []float64
		for _, run := range []*campaignRun{runA, runV, runR} {
			o.attempted += run.records
			o.failed += run.failed
			lat = append(lat, run.lat...)
		}
		if runA.records != pointsA || runR.records != pointsA || runV.records != gridB.points() {
			o.failed++
		}
		o.unit(len(lat), wall, lat)
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	o.extra = append(o.extra,
		metric{"points_per_s", median(o.rates), "1/s"},
		metric{"resume_s", median(resume), "s"},
		metric{"replay_ms", median(replay), "ms"})
	return o, nil
}
