package main

// Per-layer metrics of a traced run. Three sources, all outside the
// program: counters the packages already export (engine.Stats,
// cluster.Stats, the server's /metrics exposition), probes that time calls
// into each layer's public functions, and the CPU profile split by
// package (profile.go).

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"malec/internal/cluster"
	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
	"malec/internal/trace"
)

// layerMetric names one per-layer metric.
type layerMetric struct {
	Name, Unit, Better string
}

// layerMetrics lists every per-layer metric in print order; BENCHMARK.json
// lists the same names (the self-test checks that they agree).
var layerMetrics = func() []layerMetric {
	list := []layerMetric{
		{"server.hit_handler_us", "us", "lower"},
		{"server.hit_allocs", "count", "lower"},
		{"server.hit_resp_bytes", "bytes", "lower"},
		{"server.run_p50_ms", "ms", "lower"},
		{"server.run_mean_us", "us", "lower"},
		{"server.shed", "count", "lower"},
		{"engine.keyfor_us", "us", "lower"},
		{"engine.hit_us", "us", "lower"},
		{"engine.disk_hit_us", "us", "lower"},
		{"engine.point_overhead_us", "us", "lower"},
		{"engine.durable_point_overhead_us", "us", "lower"},
		{"engine.replay_ms", "ms", "lower"},
		{"engine.export_ms", "ms", "lower"},
		{"engine.simulations", "count", "lower"},
		{"engine.hits", "count", "higher"},
		{"engine.disk_hits", "count", "higher"},
		{"engine.dedup", "count", "higher"},
		{"engine.trace_hits", "count", "higher"},
		{"engine.trace_misses", "count", "lower"},
		{"engine.checkpoint_hits", "count", "higher"},
		{"engine.checkpoint_misses", "count", "lower"},
		{"engine.checkpoint_mb_written", "MB", "lower"},
		{"engine.checkpoint_mb_read", "MB", "lower"},
		{"engine.queue_depth_max", "count", "lower"},
		{"cluster.forwarded", "count", "higher"},
		{"cluster.forward_errors", "count", "lower"},
		{"cluster.failovers", "count", "lower"},
		{"cluster.hedges", "count", "lower"},
		{"cluster.forward_share", "ratio", "higher"},
		{"cluster.forward_hit_rtt_us", "us", "lower"},
		{"cluster.owner_ns", "ns", "lower"},
		{"cpu.exact_minstr_per_s", "Minstr/s", "higher"},
		{"cpu.sampled_minstr_per_s", "Minstr/s", "higher"},
		{"cpu.skip_rate", "ratio", "higher"},
		{"cpu.ns_per_sim_cycle", "ns", "lower"},
		{"trace.gen_mrec_per_s", "Mrec/s", "higher"},
	}
	for _, bk := range profileBuckets {
		list = append(list, layerMetric{"profile." + bk, "share", "lower"})
	}
	return append(list,
		layerMetric{"profile.samples", "count", "lower"},
		layerMetric{"profile.overhead_pct", "%", "lower"},
		layerMetric{"load.gen_lag_p99_ms", "ms", "lower"},
		layerMetric{"load.sent", "count", "higher"},
		layerMetric{"load.failed", "count", "lower"},
		layerMetric{"runtime.alloc_kb_per_op", "KiB", "lower"},
		layerMetric{"runtime.gc_cycles", "count", "lower"},
	)
}()

// newLayers returns every per-layer metric at zero: a layer the workload
// does not reach reports 0.
func newLayers() map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for _, l := range layerMetrics {
		m[l.Name] = 0
	}
	return m
}

// queueWatch samples the scheduler backlog of every live engine during a
// traced run's timed phase.
var queueWatch struct {
	mu   sync.Mutex
	live []*engine.Engine
	max  int
}

// watch registers an engine whose queue depth a traced run samples.
func (b *bench) watch(eng *engine.Engine) {
	if !b.traced {
		return
	}
	queueWatch.mu.Lock()
	queueWatch.live = append(queueWatch.live, eng)
	queueWatch.mu.Unlock()
}

// sampleQueues polls the watched engines every millisecond until stop is
// closed, keeping the deepest backlog seen.
func sampleQueues(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		queueWatch.mu.Lock()
		for _, eng := range queueWatch.live {
			queueWatch.max = max(queueWatch.max, eng.Stats().QueueDepth)
		}
		queueWatch.mu.Unlock()
	}
}

// absorbEngine adds a retired engine's counters to the per-layer totals.
// Call it once per engine, after its last use.
func (b *bench) absorbEngine(eng *engine.Engine) {
	queueWatch.mu.Lock()
	defer queueWatch.mu.Unlock()
	for i, e := range queueWatch.live {
		if e == eng {
			queueWatch.live = append(queueWatch.live[:i], queueWatch.live[i+1:]...)
			break
		}
	}
	s := eng.Stats()
	l := b.layers
	l["engine.simulations"] += float64(s.Simulations)
	l["engine.hits"] += float64(s.Hits)
	l["engine.disk_hits"] += float64(s.DiskHits)
	l["engine.dedup"] += float64(s.Dedup)
	l["engine.trace_hits"] += float64(s.TraceHits)
	l["engine.trace_misses"] += float64(s.TraceMisses)
	l["engine.checkpoint_hits"] += float64(s.CheckpointHits)
	l["engine.checkpoint_misses"] += float64(s.CheckpointMisses)
	l["engine.checkpoint_mb_written"] += float64(s.CheckpointBytesWritten) / 1e6
	l["engine.checkpoint_mb_read"] += float64(s.CheckpointBytesRead) / 1e6
}

// absorbNode adds a retired node's engine, cluster and admission counters.
func (b *bench) absorbNode(n *node) {
	b.absorbEngine(n.eng)
	b.layers["server.shed"] += promSum(n.metricsText(), "malecd_shed_total")
	if n.clu != nil {
		s := n.clu.Stats()
		b.layers["cluster.forwarded"] += float64(s.Forwarded)
		b.layers["cluster.forward_errors"] += float64(s.ForwardErrors)
		b.layers["cluster.failovers"] += float64(s.Failovers)
		b.layers["cluster.hedges"] += float64(s.Hedges)
	}
}

// perCall times fn over n calls in five batches and returns the median
// batch's time per call.
func perCall(n int, fn func()) time.Duration {
	var per []float64
	for batch := 0; batch < 5; batch++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(per))
}

// us and ms convert durations to float microseconds and milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeLayers fills the per-layer metrics that come from the workload's
// outcome, the profile and the layer probes.
func (b *bench) probeLayers(o *outcome) error {
	l := b.layers
	for _, bk := range profileBuckets {
		l["profile."+bk] = b.prof.share(bk)
	}
	l["profile.samples"] = float64(b.prof.total)
	if p := median(b.plainWall); p > 0 {
		l["profile.overhead_pct"] = 100 * (median(b.profiledWall)/p - 1)
	}
	if l["load.sent"] == 0 {
		l["load.sent"] = float64(o.allOps)
		l["load.failed"] = float64(o.failed)
	}
	l["runtime.alloc_kb_per_op"] = float64(o.alloc) / 1024 / float64(max(o.allOps, 1))
	l["runtime.gc_cycles"] = float64(o.gc)
	queueWatch.mu.Lock()
	l["engine.queue_depth_max"] = float64(queueWatch.max)
	queueWatch.mu.Unlock()

	for _, probe := range []func() error{b.probeServerEngine, b.probeStore, b.probeCluster, b.probeSimulator} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// probeServerEngine times key derivation, a cached engine lookup and the
// in-process handler for a cached /v1/run.
func (b *bench) probeServerEngine() error {
	cfg := config.MALEC()
	l := b.layers
	l["engine.keyfor_us"] = us(perCall(20000, func() { engine.KeyFor(cfg, "gzip", 5000, b.seed) }))

	n, err := startNode(nodeConfig{})
	if err != nil {
		return err
	}
	defer n.close()
	if _, _, err := n.eng.RunContext(context.Background(), cfg, "gzip", 5000, b.seed); err != nil {
		return err
	}
	l["engine.hit_us"] = us(perCall(20000, func() {
		n.eng.RunContext(context.Background(), cfg, "gzip", 5000, b.seed) //nolint:errcheck // a cached key cannot fail
	}))

	body := fmt.Sprintf(`{"config":"MALEC","benchmark":"gzip","instructions":5000,"seed":%d}`, b.seed)
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		n.api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
		return rec
	}
	// The first reply is checked against the engine; every later one must
	// repeat it byte for byte.
	first := serve()
	if first.Code != http.StatusOK || !validHit(n.eng, engine.KeyFor(cfg, "gzip", 5000, b.seed), first.Body.Bytes()) {
		return fmt.Errorf("handler probe: cached /v1/run reply %d is not a valid hit", first.Code)
	}
	bad := 0
	hit := func() {
		if rec := serve(); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
			bad++
		}
	}
	l["server.hit_handler_us"] = us(perCall(2000, hit))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const allocCalls = 1000
	for i := 0; i < allocCalls; i++ {
		hit()
	}
	runtime.ReadMemStats(&m1)
	if bad > 0 {
		return fmt.Errorf("handler probe: %d cached /v1/run calls failed", bad)
	}
	l["server.hit_allocs"] = float64(m1.Mallocs-m0.Mallocs) / allocCalls
	l["server.hit_resp_bytes"] = float64(first.Body.Len())
	if l["server.run_p50_ms"] == 0 {
		l["server.run_p50_ms"], l["server.run_mean_us"] = runLatency(n.metricsText())
	}
	return nil
}

// stubSimulate returns a fixed result instantly, so campaign probes
// measure everything around the simulator.
func stubSimulate(cfg config.Config, benchmark string, instructions int, seed uint64) cpu.Result {
	return cpu.Result{Config: cfg.Name, Benchmark: benchmark, Cycles: uint64(instructions) + seed, Instructions: uint64(instructions)}
}

// stubSpec is a grid of distinct cheap points for the overhead probes.
func stubSpec(seeds int) engine.CampaignSpec {
	s := engine.CampaignSpec{Configs: config.Fig4Configs(), Benchmarks: simBenchmarks, Instructions: 1000}
	for i := 0; i < seeds; i++ {
		s.Seeds = append(s.Seeds, uint64(i+1))
	}
	return s
}

// probeStore times per-point campaign overhead in memory and with the
// journal and disk store, journal replay, a disk hit and an export.
func (b *bench) probeStore() error {
	l := b.layers
	spec := stubSpec(20)
	points := len(spec.Configs) * len(spec.Benchmarks) * len(spec.Seeds)
	var per []float64
	for i := 0; i < 3; i++ {
		eng := engine.New(engine.Options{Simulate: stubSimulate})
		start := time.Now()
		if _, err := eng.RunCampaign(spec); err != nil {
			return err
		}
		per = append(per, us(time.Since(start))/float64(points))
	}
	l["engine.point_overhead_us"] = median(per)

	dir := b.dir + "/store-probe"
	dspec := stubSpec(4)
	dpoints := len(dspec.Configs) * len(dspec.Benchmarks) * len(dspec.Seeds)
	eng := engine.New(engine.Options{CacheDir: dir, Simulate: stubSimulate})
	mgr := engine.NewCampaignManager(eng, engine.CampaignManagerOptions{Dir: dir + "/v1/campaigns"})
	start := time.Now()
	run, err := mgr.Start(dspec)
	if err != nil {
		return err
	}
	for {
		_, state, changed := run.RecordsAfter(0)
		if state != engine.CampaignRunning {
			break
		}
		<-changed
	}
	if err := waitJournalDone(dir, run.ID()); err != nil {
		return err
	}
	l["engine.durable_point_overhead_us"] = us(time.Since(start)) / float64(dpoints)

	eng2 := engine.New(engine.Options{CacheDir: dir, Simulate: stubSimulate})
	mgr2 := engine.NewCampaignManager(eng2, engine.CampaignManagerOptions{Dir: dir + "/v1/campaigns"})
	start = time.Now()
	if done, _, err := mgr2.Replay(); err != nil || done != 1 {
		return fmt.Errorf("replay probe: %d completed campaigns, %v", done, err)
	}
	l["engine.replay_ms"] = ms(time.Since(start))
	start = time.Now()
	run2, _ := mgr2.Get(run.ID())
	if _, err := run2.Export(context.Background()); err != nil {
		return err
	}
	l["engine.export_ms"] = ms(time.Since(start))

	// A one-entry memory cache makes alternating lookups of two stored
	// keys miss memory every time and load from disk.
	eng3 := engine.New(engine.Options{CacheDir: dir, MaxCacheEntries: 1, Simulate: stubSimulate})
	cfg := config.MALEC()
	l["engine.disk_hit_us"] = us(perCall(500, func() {
		eng3.RunContext(context.Background(), cfg, "gzip", 1000, 1) //nolint:errcheck // stored key
		eng3.RunContext(context.Background(), cfg, "mcf", 1000, 1)  //nolint:errcheck // stored key
	})) / 2
	if s := eng3.Stats(); s.Simulations != 0 {
		return fmt.Errorf("disk-hit probe simulated %d points", s.Simulations)
	}
	return nil
}

// probeCluster times ring ownership and one forwarded call answered from
// the owner's cache.
func (b *bench) probeCluster() error {
	ring := cluster.NewRing([]string{"http://a", "http://b", "http://c"})
	key := engine.KeyFor(config.MALEC(), "gzip", 5000, b.seed).String()
	b.layers["cluster.owner_ns"] = float64(perCall(100000, func() { ring.Owner(key) }))

	nodes, err := startCluster(2, nodeConfig{})
	if err != nil {
		return err
	}
	defer closeNodes(nodes)
	cfg := config.MALEC()
	peer := nodes[1]
	var seed uint64
	for seed = b.seed; ; seed++ {
		if nodes[0].clu.Ring().Owner(engine.KeyFor(cfg, "gzip", 5000, seed).String()) == peer.url {
			break
		}
	}
	k := engine.KeyFor(cfg, "gzip", 5000, seed)
	if _, _, err := peer.eng.RunContext(context.Background(), cfg, "gzip", 5000, seed); err != nil {
		return err
	}
	var failed int
	b.layers["cluster.forward_hit_rtt_us"] = us(perCall(200, func() {
		_, handled, err := nodes[0].clu.Route(context.Background(), k.String(), cfg, "gzip", 5000, seed)
		if err != nil || !handled {
			failed++
		}
	}))
	if failed > 0 {
		return fmt.Errorf("forward probe: %d calls not served by the owner", failed)
	}
	return nil
}

// probeSimulator times the exact core over a pre-generated trace, a cold
// sampled run and trace generation.
func (b *bench) probeSimulator() error {
	l := b.layers
	prof := trace.Profiles["gzip"]
	n := b.scaled(200_000, 20_000)
	recs := trace.NewGenerator(prof, b.seed).Generate(n)
	cfg := config.MALEC()
	var (
		rates []float64
		res   cpu.Result
		nsCyc []float64
	)
	for i := 0; i < 3; i++ {
		start := time.Now()
		res = cpu.Run(cfg, "gzip", &cpu.SliceSource{Records: recs})
		d := time.Since(start)
		rates = append(rates, float64(n)/d.Seconds()/1e6)
		nsCyc = append(nsCyc, float64(d)/float64(res.Cycles))
	}
	l["cpu.exact_minstr_per_s"] = median(rates)
	l["cpu.ns_per_sim_cycle"] = median(nsCyc)
	l["cpu.skip_rate"] = res.SkipRate()

	scfg := config.MALEC()
	scfg.Sampling = durableSchedule(b)
	sn := b.scaled(durableInstructions, 20_000)
	start := time.Now()
	cpu.Run(scfg, "gzip", &cpu.GenSource{Gen: trace.NewGenerator(prof, b.seed), N: sn})
	l["cpu.sampled_minstr_per_s"] = float64(sn) / time.Since(start).Seconds() / 1e6

	gn := b.scaled(1_000_000, 50_000)
	start = time.Now()
	trace.NewGenerator(trace.Profiles["mcf"], b.seed).Generate(gn)
	l["trace.gen_mrec_per_s"] = float64(gn) / time.Since(start).Seconds() / 1e6
	return nil
}
