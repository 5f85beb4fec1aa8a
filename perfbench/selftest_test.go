package main

// Reduced-scale self-test of the benchmark: every workload runs end to
// end on a twentieth of its work with its correctness checks, one traced
// run exercises every layer probe and the profile split, and
// BENCHMARK.json is checked against the metrics the program prints.
//
//	cd perfbench && go test ./...

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// reducedBench returns a short, small run of one workload.
func reducedBench(t *testing.T, name string, traced bool) *bench {
	t.Helper()
	return &bench{
		workload: name,
		seed:     7,
		budget:   300 * time.Millisecond,
		traced:   traced,
		scale:    0.05,
		dir:      t.TempDir(),
		layers:   newLayers(),
	}
}

func TestWorkloadsReducedScale(t *testing.T) {
	for _, name := range sortedWorkloads() {
		t.Run(name, func(t *testing.T) {
			b := reducedBench(t, name, false)
			o, err := workloads[name](b)
			if err != nil {
				t.Fatal(err)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Fatalf("attempted %d, failed %d", o.attempted, o.failed)
			}
			if len(o.setup) < 3 || len(o.walls) < 2 {
				t.Fatalf("%d setups, %d units", len(o.setup), len(o.walls))
			}
			for _, m := range o.endToEnd() {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunFillsLayers(t *testing.T) {
	b := reducedBench(t, "serve-hit", true)
	o, err := serveHit(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.probeLayers(o); err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("failed %d of %d", o.failed, o.attempted)
	}
	// Probes measure every workload; these must be positive on any run.
	for _, name := range []string{"server.hit_handler_us", "server.hit_allocs", "server.hit_resp_bytes",
		"engine.keyfor_us", "engine.hit_us", "engine.disk_hit_us", "engine.point_overhead_us",
		"engine.durable_point_overhead_us", "engine.replay_ms", "engine.export_ms",
		"cluster.forward_hit_rtt_us", "cluster.owner_ns", "cpu.exact_minstr_per_s",
		"cpu.sampled_minstr_per_s", "cpu.ns_per_sim_cycle", "trace.gen_mrec_per_s",
		"profile.samples", "load.sent", "runtime.alloc_kb_per_op", "engine.hits",
		"server.run_p50_ms", "server.run_mean_us"} {
		if !(b.layers[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, b.layers[name])
		}
	}
	var shares float64
	for _, bk := range profileBuckets {
		shares += b.layers["profile."+bk]
	}
	if shares < 0.999 || shares > 1.001 {
		t.Errorf("profile shares sum to %v", shares)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"malec/internal/cpu.(*machine).step":        "cpu",
		"malec/internal/waytable.(*Table).Lookup":   "memside",
		"malec/internal/metrics.(*Histogram).Obs":   "server",
		"encoding/json.(*encodeState).marshal":      "json",
		"crypto/internal/fips140/sha256.blockAMD64": "sha256",
		"net/http.(*conn).serve":                    "net_http",
		"internal/poll.(*FD).Read":                  "syscall",
		"internal/runtime/syscall.Syscall6":         "syscall",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":   "runtime",
		"gcWriteBarrier":                            "runtime",
		"strconv.AppendFloat":                       "other",
	} {
		if got := bucketOf(packageOf(fn)); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spec is the subset of BENCHMARK.json the self-test checks.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []layerMetric `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(sortedWorkloads(), ",") {
		t.Errorf("workloads %v, program has %v", names, sortedWorkloads())
	}
	e2e := (&outcome{}).endToEnd()
	if len(s.EndToEnd) != len(e2e) {
		t.Fatalf("%d end_to_end metrics, program prints %d", len(s.EndToEnd), len(e2e))
	}
	for i, m := range s.EndToEnd {
		if m.Name != e2e[i].Name || m.Unit != e2e[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, e2e[i].Name, e2e[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(s.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per_layer metrics, program prints %d", len(s.PerLayer), len(layerMetrics))
	}
	for i, m := range s.PerLayer {
		if m != layerMetrics[i] {
			t.Errorf("per_layer[%d] = %+v, program prints %+v", i, m, layerMetrics[i])
		}
	}
}

// sortedWorkloads returns the workload names in order.
func sortedWorkloads() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
