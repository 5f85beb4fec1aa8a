// Command perfbench is malec's same-host benchmark. One invocation runs one
// named workload for a fixed time, checks every output it produced, and
// prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set listed in
// BENCHMARK.json; with -trace 1 they are the per-layer set: counters the
// packages already export, probes that time calls into the public
// functions of each layer, and a CPU profile split by package. Lines
// before the last one are a human-readable report (host fingerprint,
// workload-specific metrics, profile sample counts).
//
// Build and run it from the root of a checkout through the wrapper, which
// keeps every build and scratch file under .bench_build:
//
//	python3 perfbench/run.py --workload sim-exact --seed 1 --seconds 25 --trace 0
//
// See perfbench/README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) (*outcome, error){
	"sim-exact":       simExact,
	"serve-hit":       serveHit,
	"durable-sampled": durableSampled,
	"cluster-forward": clusterForward,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-exact, serve-hit, durable-sampled or cluster-forward")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 25, "measured duration in seconds")
		traceOn = flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fatalf("need -seconds > 0 and -trace 0 or 1")
	}
	dir, err := os.MkdirTemp("", "perfbench-*")
	if err != nil {
		fatalf("scratch dir: %v", err)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *traceOn == 1,
		scale:    1,
		dir:      dir,
		layers:   newLayers(),
	}
	out, err := run(b)
	if err == nil && b.traced {
		err = b.probeLayers(out)
	}
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	b.emit(out)
}

// fatalf reports a benchmark that could not run and exits non-zero without
// printing a result line.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// bench is one run's settings and the per-layer values gathered so far.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	scale    float64 // work-size multiplier; the self-test runs below 1
	dir      string  // scratch directory, removed at exit
	layers   map[string]float64
	prof     profileSplit
	// profiledWall and plainWall are the unit times with the CPU profiler
	// on and off in a traced run; their medians give the tracing overhead.
	profiledWall, plainWall []float64
}

// scaled returns n scaled by the work-size multiplier, at least min.
func (b *bench) scaled(n, min int) int {
	v := int(math.Round(float64(n) * b.scale))
	if v < min {
		return min
	}
	return v
}

// outcome is what one workload run measured and checked.
type outcome struct {
	setup []float64 // seconds per set-up, several per run
	walls []float64 // seconds per timed unit
	// rates and lats hold one entry per timed unit: its operations
	// (requests or campaign points) per second, and each operation's
	// latency in ms from request to result. Medians over units damp a unit
	// that a neighbour on the host slowed down.
	rates []float64
	lats  [][]float64
	// allOps counts every operation of the timed phase, for cpu_ms_per_op
	// and the per-op allocation rate.
	allOps    int
	cpu       float64  // process CPU seconds of the timed phase
	attempted int      // operations whose output was checked
	failed    int      // operations with an error or a wrong output
	alloc     uint64   // bytes allocated in the timed phase
	gc        uint32   // GC cycles in the timed phase
	extra     []metric // workload-specific metrics printed in the report
}

// metric is one named value with its unit.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timed runs unit repeatedly until the budget is spent, at least min
// times, and records each unit's wall time, the process CPU time, the
// allocations and the GC cycles of the whole phase. In a traced run every
// other unit runs under the CPU profiler. unit returns the wall time the
// workload counts, in seconds.
func (b *bench) timed(o *outcome, min int, unit func(i int) (float64, error)) error {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	if b.traced {
		stop, done := make(chan struct{}), make(chan struct{})
		go sampleQueues(stop, done)
		defer func() {
			close(stop)
			<-done
		}()
	}
	deadline := time.Now().Add(b.budget)
	for i := 0; i < min || time.Now().Before(deadline); i++ {
		profiled := b.traced && i%2 == 0
		if profiled {
			if err := b.prof.start(); err != nil {
				return err
			}
		}
		wall, err := unit(i)
		if profiled {
			if perr := b.prof.stop(); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			return err
		}
		o.walls = append(o.walls, wall)
		if profiled {
			b.profiledWall = append(b.profiledWall, wall)
		} else {
			b.plainWall = append(b.plainWall, wall)
		}
	}
	o.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	o.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	o.gc = ms1.NumGC - ms0.NumGC
	return nil
}

// setups runs set-up n times, timing each, and keeps the last instance:
// every earlier one is torn down with its own close function.
func setups[T any](o *outcome, n int, setup func() (T, func(), error)) (T, func(), error) {
	var (
		v     T
		close func()
	)
	for i := 0; i < n; i++ {
		if close != nil {
			close()
		}
		start := time.Now()
		var err error
		v, close, err = setup()
		if err != nil {
			return v, nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}
	return v, close, nil
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// unit records one timed unit's operation count, wall time and latencies.
func (o *outcome) unit(ops int, wall float64, lat []float64) {
	o.rates = append(o.rates, float64(ops)/wall)
	o.lats = append(o.lats, lat)
	o.allOps += ops
}

// latency returns the median over units of each unit's q-quantile.
func (o *outcome) latency(q float64) float64 {
	var per []float64
	for _, l := range o.lats {
		if len(l) > 0 {
			per = append(per, quantile(l, q))
		}
	}
	return median(per)
}

// endToEnd computes the end-to-end metrics every workload reports in its
// result line. p99_ms is printed in the report only: on a 2-CPU virtual
// machine shared with other tenants its run-to-run spread is several times
// the largest bound a gated metric may have (see README.md).
func (o *outcome) endToEnd() []metric {
	return []metric{
		{"setup_s", median(o.setup), "s"},
		{"wall_s", median(o.walls), "s"},
		{"ops_per_s", median(o.rates), "1/s"},
		{"p50_ms", o.latency(0.50), "ms"},
		{"cpu_ms_per_op", 1000 * o.cpu / float64(o.allOps), "ms"},
		{"peak_rss_mb", peakRSSMB(), "MiB"},
	}
}

// emit prints the report lines and the result line.
func (b *bench) emit(o *outcome) {
	host := hostInfo()
	line, _ := json.Marshal(map[string]any{"host": host, "workload": b.workload, "seed": b.seed,
		"seconds": b.budget.Seconds(), "trace": b.traced})
	fmt.Println(string(line))

	errorRate := float64(o.failed) / float64(max(o.attempted, 1))
	e2e := o.endToEnd()
	report := append(append([]metric{}, e2e...), o.extra...)
	report = append(report, metric{"p99_ms", o.latency(0.99), "ms"}, metric{"error_rate", errorRate, "ratio"})
	samples := 0
	for _, l := range o.lats {
		samples += len(l)
	}
	fmt.Printf("# %s: %d units, %d operations, %d latency samples, %d setups\n",
		b.workload, len(o.walls), o.allOps, samples, len(o.setup))
	fmt.Printf("#   unit wall quartiles %.6g %.6g %.6g s\n",
		quantile(o.walls, 0.25), median(o.walls), quantile(o.walls, 0.75))
	for _, m := range report {
		fmt.Printf("#   %-24s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}

	var metrics []metric
	if b.traced {
		fmt.Printf("# profile: %d self samples\n", b.prof.total)
		for _, bk := range profileBuckets {
			fmt.Printf("#   profile.%-15s %6d samples\n", bk, b.prof.samples[bk])
		}
		fmt.Printf("#   other, top packages: %s\n", strings.Join(b.prof.topOther(6), " "))
		for _, l := range layerMetrics {
			metrics = append(metrics, metric{l.Name, b.layers[l.Name], l.Unit})
		}
	} else {
		metrics = e2e
	}
	vals := make(map[string]metric, len(metrics))
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatalf("metric %s is not a number", m.Name)
		}
		vals[m.Name] = m
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, vals})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(res))
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// hostInfo is the fingerprint printed with every result, so a number from
// another host or another tree is never compared as a same-host one.
func hostInfo() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"tree":       treeDigest(),
	}
}
