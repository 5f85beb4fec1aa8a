package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"malec/internal/cluster"
	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
	"malec/internal/stats"
)

// replyStub is a deterministic simulation stub whose results exercise the
// whole encoding: counters (a custom MarshalJSON), energy floats and, for a
// sampled point, the estimate that rides beside the result. While gate is
// non-nil, a call signals entered and blocks until gate closes.
type replyStub struct {
	entered chan struct{}
	gate    atomic.Pointer[chan struct{}]
}

func (st *replyStub) simulate(ctx context.Context, cfg config.Config, b string, n int, seed uint64) (cpu.Result, error) {
	if g := st.gate.Load(); g != nil {
		st.entered <- struct{}{}
		select {
		case <-*g:
		case <-ctx.Done():
			return cpu.Result{}, ctx.Err()
		}
	}
	res := stubSim(cfg, b, n, seed)
	res.Counters = stats.NewCounters()
	res.Counters.AddName("loads<&>", uint64(n)/3)
	res.Counters.AddName("stores", uint64(n)/5)
	res.Energy.Dynamic[0] = float64(n) * 1.25e-3
	if cfg.Sampling != nil {
		res.Sampling = &cpu.SamplingEstimate{
			Windows: 3, Warmup: cfg.Sampling.Warmup, Detail: cfg.Sampling.Detail,
			Interval: cfg.Sampling.Interval, CPIMean: 1.5, CPIRelHalfWidth: 0.02,
		}
	}
	return res, nil
}

// newReplyServer wires a server over an engine persisting to dir, enrolled
// in a one-node cluster so /internal/v1/point is served (every point is
// owned locally).
func newReplyServer(t *testing.T, st *replyStub, dir string) (*Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4, CacheDir: dir, SimulateContext: st.simulate})
	clu := cluster.New(cluster.Options{Self: "http://127.0.0.1:1"})
	return New(eng, Options{Cluster: clu}), eng
}

// serve runs one in-process request.
func serve(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// indented is the reply encoding before replies went compact: writeJSON's
// two-space indenting encoder.
func indented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkOracle asserts that reply is json.Marshal(want) plus a newline, and
// json.Compact of the indented encoding of want.
func checkOracle(t *testing.T, what string, reply []byte, want any) {
	t.Helper()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if wantBytes := append(data, '\n'); !bytes.Equal(reply, wantBytes) {
		t.Errorf("%s: reply\n%s\nwant json.Marshal\n%s", what, reply, wantBytes)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented(t, want)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSuffix(reply, []byte("\n")), bytes.TrimSuffix(compact.Bytes(), []byte("\n"))) {
		t.Errorf("%s: reply\n%s\nwant json.Compact of the indented reply\n%s", what, reply, compact.Bytes())
	}
}

// TestHotReplyOracle checks every /v1/run and /internal/v1/point reply
// source, for an exact and a sampled point, against json.Marshal of the
// reply struct built here — the bytes the indenting encoder produced,
// compacted.
func TestHotReplyOracle(t *testing.T) {
	sampling := &config.Sampling{Warmup: 200, Detail: 800, Interval: 20000}
	points := []struct {
		name     string
		sampling *config.Sampling
		body     string
	}{
		{"exact", nil, `{"config":"MALEC","benchmark":"gzip","instructions":4000,"seed":3}`},
		{"sampled", sampling, `{"config":"MALEC","benchmark":"gzip","instructions":40000,"seed":3,
			"sampling":{"Warmup":200,"Detail":800,"Interval":20000}}`},
	}
	dir := t.TempDir()
	st := &replyStub{entered: make(chan struct{}, 1)}
	srv, eng := newReplyServer(t, st, dir)
	for _, p := range points {
		cfg := config.MALEC()
		cfg.Sampling = p.sampling
		n := 4000
		if p.sampling != nil {
			n = 40000
		}
		key := engine.KeyFor(cfg, "gzip", n, 3)
		pointBody, err := json.Marshal(cluster.PointRequest{Config: cfg, Benchmark: "gzip", Instructions: n, Seed: 3, Key: key.String()})
		if err != nil {
			t.Fatal(err)
		}
		check := func(eng *engine.Engine, what string, rec *httptest.ResponseRecorder, src engine.Source, internal bool) {
			t.Helper()
			what = p.name + " " + what
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body)
			}
			res, ok := eng.Cached(key)
			if !ok {
				t.Fatalf("%s: point not cached", what)
			}
			if internal {
				checkOracle(t, what, rec.Body.Bytes(), cluster.PointResponse{
					Key: key.String(), Source: string(src), Result: res, Sampling: res.Sampling})
				return
			}
			checkOracle(t, what, rec.Body.Bytes(), runResponse{
				Key: key, Source: src, Cached: src != engine.SourceSimulated,
				Result: res, Sampling: res.Sampling})
		}

		check(eng, "simulated", serve(srv, "/v1/run", p.body), engine.SourceSimulated, false)
		// The first memory hit encodes and memoizes; the second serves
		// the memoized bytes.
		check(eng, "memory", serve(srv, "/v1/run", p.body), engine.SourceMemory, false)
		check(eng, "memory (memoized)", serve(srv, "/v1/run", p.body), engine.SourceMemory, false)
		check(eng, "point memory", serve(srv, "/internal/v1/point", string(pointBody)), engine.SourceMemory, true)

		// A fresh engine over the same directory serves the disk entry.
		srv2, eng2 := newReplyServer(t, st, dir)
		check(eng2, "disk", serve(srv2, "/v1/run", p.body), engine.SourceDisk, false)
		srv3, eng3 := newReplyServer(t, st, dir)
		check(eng3, "point disk", serve(srv3, "/internal/v1/point", string(pointBody)), engine.SourceDisk, true)

		// Two concurrent requests on a fresh, diskless engine: the
		// second joins the first's flight.
		for _, internal := range []bool{false, true} {
			path, body := "/v1/run", p.body
			if internal {
				path, body = "/internal/v1/point", string(pointBody)
			}
			srv4, eng4 := newReplyServer(t, st, "")
			gate := make(chan struct{})
			st.gate.Store(&gate)
			first := make(chan *httptest.ResponseRecorder)
			go func() { first <- serve(srv4, path, body) }()
			<-st.entered
			st.gate.Store(nil)
			joined := make(chan *httptest.ResponseRecorder)
			go func() { joined <- serve(srv4, path, body) }()
			deadline := time.Now().Add(5 * time.Second)
			for eng4.Stats().Dedup == 0 {
				if time.Now().After(deadline) {
					t.Fatal("second request never joined the flight")
				}
				time.Sleep(time.Millisecond)
			}
			close(gate)
			check(eng4, fmt.Sprintf("simulated (internal=%v)", internal), <-first, engine.SourceSimulated, internal)
			check(eng4, fmt.Sprintf("inflight (internal=%v)", internal), <-joined, engine.SourceInflight, internal)
		}
	}
}

// TestCampaignExportStaysIndented pins the campaign JSON export to the
// indented layout it had before live replies went compact.
func TestCampaignExportStaysIndented(t *testing.T) {
	ts, _ := newCampaignServer(t, stubSim, engine.CampaignManagerOptions{}, Options{})
	resp, raw := post(t, ts.URL+"/v1/campaigns",
		`{"configs":["Base1ldst","MALEC"],"benchmarks":["gzip"],"instructions":2000,"seeds":[1,2]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d: %s", resp.StatusCode, raw)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	readStream(t, ts.URL+"/v1/campaigns/"+st.ID+"/results") // waits for done
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/results?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var export struct {
		Jobs    int                `json:"jobs"`
		Results []engine.JobResult `json:"results"`
	}
	if err := json.Unmarshal(got.Bytes(), &export); err != nil {
		t.Fatal(err)
	}
	want := indented(t, map[string]any{"jobs": export.Jobs, "results": export.Results})
	if export.Jobs != 4 || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("export\n%s\nwant the indented encoding\n%s", got.Bytes(), want)
	}
}

// hitServer returns a handler whose engine already holds the /v1/run point
// of body in memory, and the reply every later hit must repeat. The point
// is really simulated, so its result carries the full counter set that
// makes encoding it costly.
func hitServer(tb testing.TB, body string) (http.Handler, []byte) {
	tb.Helper()
	eng := engine.New(engine.Options{Workers: 1})
	srv := New(eng, Options{})
	for i := 0; i < 2; i++ { // simulate, then the first memory hit memoizes
		if rec := serve(srv, "/v1/run", body); rec.Code != http.StatusOK {
			tb.Fatalf("warm-up status %d: %s", rec.Code, rec.Body)
		}
	}
	rec := serve(srv, "/v1/run", body)
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"source":"memory"`)) {
		tb.Fatalf("warm point not served from memory: %s", rec.Body)
	}
	return srv, rec.Body.Bytes()
}

const hitBody = `{"config":"MALEC","benchmark":"gzip","instructions":5000,"seed":1}`

// TestRunHitAllocs gates the allocations of an in-process cached /v1/run,
// request and recorder included. Encoding the result on every hit again
// roughly doubles the count.
func TestRunHitAllocs(t *testing.T) {
	h, want := hitServer(t, hitBody)
	allocs := testing.AllocsPerRun(200, func() {
		if rec := serve(h, "/v1/run", hitBody); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("hit reply changed: %s", rec.Body)
		}
	})
	if allocs > 60 {
		t.Fatalf("cached /v1/run takes %.0f allocations, ceiling 60", allocs)
	}
}

// BenchmarkRunHit times an in-process cached /v1/run, request and recorder
// included.
func BenchmarkRunHit(b *testing.B) {
	h, want := hitServer(b, hitBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(h, "/v1/run", hitBody); len(rec.Body.Bytes()) != len(want) {
			b.Fatalf("hit reply changed: %s", rec.Body)
		}
	}
}

// FuzzRunBody sends arbitrary bytes to /v1/run. A body is either run (200,
// with a reply that decodes as runResponse) or rejected as a client error
// (400, 413); nothing may panic or answer 5xx. The seed corpus is under
// testdata/fuzz/FuzzRunBody.
func FuzzRunBody(f *testing.F) {
	eng := engine.New(engine.Options{MaxCacheEntries: 64, Simulate: stubSim})
	srv := New(eng, Options{MaxInstructions: 1_000_000})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var reply runResponse
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&reply); err != nil {
				t.Fatalf("200 reply does not decode as runResponse: %v\n%s", err, rec.Body)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
	})
}
