package main

// serve-hit: an in-process malecd on a loopback listener whose every
// POST /v1/run is a cache hit, so the request path (HTTP, admission, key
// derivation, engine lookup, JSON encode) does all the work and the
// simulator none. Each timed unit is a closed-loop batch over two
// keep-alive connections followed by an open-loop window at a fixed rate.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
)

const (
	// serveInstructions is the instruction count of every served point.
	serveInstructions = 5000
	// serveConns is the client connection count: one per host CPU.
	serveConns = 2
	// serveClosedBatch is the request count of one closed-loop batch.
	serveClosedBatch = 6000
	// serveOpenRate is the open-loop arrival rate, fixed once at about
	// half the closed-loop rate measured on the tree that introduced the
	// benchmark, so later trees are compared at the same offered load.
	serveOpenRate = 6000
	// serveOpenRequests is the request count of one open-loop window.
	serveOpenRequests = 3000
)

// servePoint is one warmed point and its request body.
type servePoint struct {
	body []byte
	key  engine.Key
}

// replyCheck keeps the first response body seen per point; later
// responses must repeat it byte for byte, and every first body is checked
// against the engine after the timed phase.
type replyCheck struct {
	mu       sync.Mutex
	first    [][]byte
	requests []int // responses per point
	failed   int   // transport errors, bad statuses, differing bodies
}

func (rc *replyCheck) record(i int, status int, body []byte, err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.requests[i]++
	switch {
	case err != nil || status != http.StatusOK:
		rc.failed++
	case rc.first[i] == nil:
		rc.first[i] = append([]byte(nil), body...)
	case !bytes.Equal(rc.first[i], body):
		rc.failed++
	}
}

func serveHit(b *bench) (*outcome, error) {
	o := &outcome{}
	names := config.Names()
	instr := b.scaled(serveInstructions, 1000)
	var points []servePoint
	for _, name := range names {
		cfg, _ := config.Named(name)
		for _, bench := range simBenchmarks {
			body := fmt.Sprintf(`{"config":%q,"benchmark":%q,"instructions":%d,"seed":%d}`, name, bench, instr, b.seed)
			points = append(points, servePoint{[]byte(body), engine.KeyFor(cfg, bench, instr, b.seed)})
		}
	}
	warm, err := json.Marshal(gridBody{Configs: names, Benchmarks: simBenchmarks, Instructions: instr, Seeds: []uint64{b.seed}})
	if err != nil {
		return nil, err
	}
	client := newClient(serveConns)
	n, closeNode, err := setups(o, 5, func() (*node, func(), error) {
		n, err := startNode(nodeConfig{})
		if err != nil {
			return nil, nil, err
		}
		status, data, err := do(client, http.MethodPost, n.url+"/v1/sweep", warm)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up sweep: %d %s", status, firstLine(data))
		}
		if err != nil {
			n.close()
			return nil, nil, err
		}
		return n, n.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer closeNode()
	b.watch(n.eng)

	rc := &replyCheck{first: make([][]byte, len(points)), requests: make([]int, len(points))}
	rng := rand.New(rand.NewPCG(b.seed, 0x5e7e))
	send := func(i int, buf *bytes.Buffer) {
		buf.Reset()
		resp, err := client.Post(n.url+"/v1/run", "application/json", bytes.NewReader(points[i].body))
		status := 0
		if err == nil {
			status = resp.StatusCode
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
		}
		rc.record(i, status, buf.Bytes(), err)
	}
	closedN := b.scaled(serveClosedBatch, 100)
	openN := b.scaled(serveOpenRequests, 50)
	period := time.Second / serveOpenRate
	var lags []float64
	err = b.timed(o, 2, func(int) (float64, error) {
		// Request order is drawn up front from the seeded generator.
		closedOrder := make([]int, closedN)
		for k := range closedOrder {
			closedOrder[k] = rng.IntN(len(points))
		}
		openOrder := make([]int, openN)
		for k := range openOrder {
			openOrder[k] = rng.IntN(len(points))
		}

		var next atomic.Int64
		start := time.Now()
		parallel(serveConns, func(int) {
			var buf bytes.Buffer
			for k := next.Add(1) - 1; k < int64(closedN); k = next.Add(1) - 1 {
				send(closedOrder[k], &buf)
			}
		})
		wall := time.Since(start).Seconds()

		// Open loop: request k is due at t0 + k*period whether or not
		// earlier ones finished; latency runs from the due time.
		next.Store(0)
		lat := make([][]float64, serveConns)
		lag := make([][]float64, serveConns)
		t0 := time.Now()
		parallel(serveConns, func(w int) {
			var buf bytes.Buffer
			for k := next.Add(1) - 1; k < int64(openN); k = next.Add(1) - 1 {
				due := t0.Add(time.Duration(k) * period)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				lag[w] = append(lag[w], ms(time.Since(due)))
				send(openOrder[k], &buf)
				lat[w] = append(lat[w], ms(time.Since(due)))
			}
		})
		var unitLat []float64
		for w := range lat {
			unitLat = append(unitLat, lat[w]...)
			lags = append(lags, lag[w]...)
		}
		o.unit(closedN, wall, unitLat)
		o.allOps += openN
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	o.attempted = o.allOps
	o.failed = rc.failed

	// Every first body must be a cache hit under the point's canonical key
	// carrying exactly the engine's cached result.
	for i, body := range rc.first {
		if body != nil && !validHit(n.eng, points[i].key, body) {
			o.failed += rc.requests[i]
		}
	}
	b.layers["server.run_p50_ms"], b.layers["server.run_mean_us"] = runLatency(n.metricsText())
	b.layers["load.gen_lag_p99_ms"] = quantile(lags, 0.99)
	b.layers["load.sent"] = float64(o.allOps)
	b.layers["load.failed"] = float64(o.failed)
	b.absorbNode(n)
	o.extra = append(o.extra,
		metric{"rps", median(o.rates), "1/s"},
		metric{"open_rate", float64(serveOpenRate), "1/s"},
		metric{"gen_lag_p99_ms", quantile(lags, 0.99), "ms"},
		metric{"points", float64(len(points)), "count"})
	return o, nil
}

// validHit decodes one /v1/run reply and checks it against the engine.
func validHit(eng *engine.Engine, key engine.Key, body []byte) bool {
	var reply struct {
		Key    engine.Key `json:"key"`
		Cached bool       `json:"cached"`
		Result cpu.Result `json:"result"`
	}
	if err := json.Unmarshal(body, &reply); err != nil || !reply.Cached || reply.Key != key {
		return false
	}
	want, ok := eng.Cached(key)
	return ok && sameResult(reply.Result, want)
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}
