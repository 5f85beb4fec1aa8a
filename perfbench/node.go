package main

// An in-process malecd: engine, campaign manager, optional cluster
// membership and the HTTP API on a loopback listener, wired with malecd's
// default flags. Workloads reach it only over HTTP or through the public
// functions of the packages, as a client or an embedding program would.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"malec/internal/cluster"
	"malec/internal/config"
	"malec/internal/engine"
	"malec/internal/server"
)

// node is one running in-process malecd.
type node struct {
	eng    *engine.Engine
	mgr    *engine.CampaignManager
	api    *server.Server
	clu    *cluster.Cluster
	srv    *http.Server
	url    string
	served chan struct{} // closed when the serve goroutine returns
	replay time.Duration // time spent in CampaignManager.Replay
}

// nodeConfig selects what differs between nodes; everything else is
// malecd's default.
type nodeConfig struct {
	cacheDir string       // -cache-dir ("" keeps results in memory)
	ln       net.Listener // listener to serve on (nil: a fresh loopback one)
	peers    []string     // -peers (empty: single node)
}

// startNode builds and starts a node the way cmd/malecd does.
func startNode(nc nodeConfig) (*node, error) {
	ln := nc.ln
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	n := &node{url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	n.eng = engine.New(engine.Options{
		CacheDir:        nc.cacheDir,
		MaxCacheEntries: 1 << 14,
	})
	if len(nc.peers) > 0 {
		n.clu = cluster.New(cluster.Options{
			Self:          n.url,
			Peers:         nc.peers,
			ProbeInterval: time.Second,
			CallTimeout:   time.Minute,
		})
		n.clu.Start()
	}
	campWorkers := 0
	if n.clu != nil {
		campWorkers = n.eng.Workers() * n.clu.Size()
	}
	journal := ""
	if nc.cacheDir != "" {
		journal = filepath.Join(nc.cacheDir, "v1", "campaigns")
	}
	n.mgr = engine.NewCampaignManager(n.eng, engine.CampaignManagerOptions{
		Dir:            journal,
		MaxActive:      8,
		DefaultRetries: 2,
		DefaultWorkers: campWorkers,
	})
	if journal != "" {
		start := time.Now()
		if _, _, err := n.mgr.Replay(); err != nil {
			ln.Close()
			n.stopCluster()
			return nil, fmt.Errorf("journal replay: %w", err)
		}
		n.replay = time.Since(start)
	}
	n.api = server.New(n.eng, server.Options{
		MaxInstructions:      5_000_000,
		MaxSweepJobs:         4096,
		RequestTimeout:       5 * time.Minute,
		MaxConcurrent:        2 * n.eng.Workers(),
		MaxQueueDepth:        256,
		MaxQueueWait:         5 * time.Second,
		PerClientConcurrency: 32,
		Campaigns:            n.mgr,
		Cluster:              n.clu,
	})
	n.srv = &http.Server{Handler: n.api, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(n.served)
		n.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return n, nil
}

// stopCluster halts the membership probes, if any.
func (n *node) stopCluster() {
	if n.clu != nil {
		n.clu.Stop()
	}
}

// close stops the node: probes first, then the listener and every
// connection, waiting for the serve goroutine and every running campaign.
func (n *node) close() {
	n.stopCluster()
	n.srv.Close()
	<-n.served
	for _, r := range n.mgr.List() {
		n.mgr.Cancel(r.ID())
	}
	for _, r := range n.mgr.List() {
		for r.Status().State == engine.CampaignRunning {
			time.Sleep(time.Millisecond)
		}
	}
}

// waitJournalDone waits until a campaign's completion marker is on disk.
// The stream reports done before the marker is written, and a restart
// that finds no marker resumes the campaign instead of loading it
// completed.
func waitJournalDone(cacheDir, id string) error {
	marker := filepath.Join(cacheDir, "v1", "campaigns", id, "done")
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if _, err := os.Stat(marker); err == nil {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("campaign %s: no completion marker after 10s", id)
}

// metricsText renders the node's Prometheus exposition.
func (n *node) metricsText() string {
	var b strings.Builder
	n.api.Metrics().WritePrometheus(&b) //nolint:errcheck // strings.Builder never fails
	return b.String()
}

// newClient returns an HTTP client holding at most conns connections to
// any one host.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do sends one request and returns the status and the whole body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// gridBody is the JSON body of /v1/sweep and /v1/campaigns.
type gridBody struct {
	Configs      []string         `json:"configs"`
	Benchmarks   []string         `json:"benchmarks"`
	Instructions int              `json:"instructions"`
	Seeds        []uint64         `json:"seeds"`
	Sampling     *config.Sampling `json:"sampling,omitempty"`
}

// points returns the grid's point count.
func (g gridBody) points() int { return len(g.Configs) * len(g.Benchmarks) * len(g.Seeds) }

// campaignRun is one campaign submitted over HTTP and followed to its end.
type campaignRun struct {
	id      string
	records int       // result lines streamed
	failed  int       // error lines and stream protocol violations
	lat     []float64 // ms from submission to each result line
	csv     []byte    // the final CSV export
}

// runCampaign submits grid to base, follows its NDJSON result stream to
// the done line, and fetches the CSV export.
func runCampaign(c *http.Client, base string, grid gridBody) (*campaignRun, error) {
	body, err := json.Marshal(grid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	status, data, err := do(c, http.MethodPost, base+"/v1/campaigns", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/campaigns: %d %s", status, firstLine(data))
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("campaign handle: %w", err)
	}
	run := &campaignRun{id: st.ID}
	if err := run.follow(c, base, start); err != nil {
		return nil, err
	}
	if run.csv, err = exportCSV(c, base, run.id); err != nil {
		return nil, err
	}
	return run, nil
}

// follow reads the campaign's result stream from the beginning to its
// done line, checking that cursors are dense and every point succeeded.
func (run *campaignRun) follow(c *http.Client, base string, start time.Time) error {
	resp, err := c.Get(base + "/v1/campaigns/" + run.id + "/results")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET results: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var ln struct {
			Seq       uint64 `json:"seq"`
			Error     string `json:"error"`
			Done      bool   `json:"done"`
			State     string `json:"state"`
			Heartbeat bool   `json:"heartbeat"`
			Failed    int    `json:"failed"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return fmt.Errorf("result line: %w", err)
		}
		switch {
		case ln.Done:
			if ln.State != string(engine.CampaignDone) || ln.Failed != 0 {
				run.failed++
			}
			return nil
		case ln.Heartbeat:
			continue
		}
		run.lat = append(run.lat, float64(time.Since(start))/float64(time.Millisecond))
		run.records++
		if ln.Error != "" || ln.Seq != uint64(run.records) {
			run.failed++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("result stream ended without a done line")
}

// exportCSV fetches a finished campaign's CSV export.
func exportCSV(c *http.Client, base, id string) ([]byte, error) {
	status, data, err := do(c, http.MethodGet, base+"/v1/campaigns/"+id+"/results?format=csv", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("CSV export: %d %s", status, firstLine(data))
	}
	return data, nil
}

// firstLine trims a response body for an error message.
func firstLine(data []byte) string {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		data = data[:i]
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return string(data)
}

// promSum sums every sample of a Prometheus family in an exposition.
func promSum(text, family string) float64 {
	var sum float64
	for _, ln := range strings.Split(text, "\n") {
		if !strings.HasPrefix(ln, family) {
			continue
		}
		rest := ln[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(ln[strings.LastIndexByte(ln, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// runLatency returns the /v1/run latency histogram's median in ms and its
// mean (sum over count) in µs. Cache hits all fall in the histogram's first
// bucket (0.5 ms), where the median interpolates to 0.25 ms; the mean keeps
// full resolution.
func runLatency(text string) (p50Ms, meanUs float64) {
	const family = "malecd_http_request_seconds"
	const labels = `{endpoint="/v1/run"}`
	count := promSum(text, family+"_count"+labels)
	if count == 0 {
		return 0, 0
	}
	return promP50Ms(text, "/v1/run"), 1e6 * promSum(text, family+"_sum"+labels) / count
}

// promP50Ms returns the median of an endpoint's request-latency histogram
// in milliseconds, interpolated within its bucket as Prometheus's
// histogram_quantile does (0 when the endpoint saw no requests).
func promP50Ms(text, endpoint string) float64 {
	prefix := "malecd_http_request_seconds_bucket{endpoint=\"" + endpoint + "\",le=\""
	var les, counts []float64
	for _, ln := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(ln, prefix)
		if !ok {
			continue
		}
		le, val, ok := strings.Cut(rest, "\"} ")
		if !ok {
			continue
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			bound, _ = strconv.ParseFloat(le, 64)
		}
		n, _ := strconv.ParseFloat(val, 64)
		les = append(les, bound)
		counts = append(counts, n)
	}
	if len(counts) == 0 || counts[len(counts)-1] == 0 {
		return 0
	}
	rank := counts[len(counts)-1] / 2
	lo, prev := 0.0, 0.0
	for i, n := range counts {
		if n >= rank {
			if math.IsInf(les[i], 1) {
				return lo * 1000
			}
			return 1000 * (lo + (les[i]-lo)*(rank-prev)/math.Max(n-prev, 1))
		}
		lo, prev = les[i], n
	}
	return lo * 1000
}
