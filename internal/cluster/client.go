package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/faultinject"
)

// PointRequest is the POST /internal/v1/point body: one simulation point
// forwarded to its owner, carrying the fully resolved configuration (not a
// preset name — the forwarding node already resolved and possibly modified
// it, e.g. a sampling schedule) plus the canonical key the sender computed.
// The receiver recomputes the key and refuses on mismatch, so version skew
// between replicas degrades to local execution instead of silently caching
// a result under the wrong address.
type PointRequest struct {
	Config       config.Config `json:"config"`
	Benchmark    string        `json:"benchmark"`
	Instructions int           `json:"instructions"`
	Seed         uint64        `json:"seed"`
	Key          string        `json:"key,omitempty"`
}

// PointResponse is the /internal/v1/point reply. Sampling rides separately
// because cpu.Result excludes it from JSON (it is estimate metadata, not
// semantic result content); the client re-attaches it so a forwarded
// sampled run answers /v1/run exactly like a local one.
type PointResponse struct {
	Key      string                `json:"key"`
	Source   string                `json:"source"`
	Result   cpu.Result            `json:"result"`
	Sampling *cpu.SamplingEstimate `json:"sampling,omitempty"`
}

// Client is the peer HTTP client: one bounded-timeout call per method, no
// policy — which peer to call, and what a failure means for its health,
// is Cluster's decision.
type Client struct {
	http    *http.Client
	timeout time.Duration
}

// newClient builds the peer client. timeout bounds one forwarded call
// (dial + execute + reply); the caller's context can only tighten it.
func newClient(timeout time.Duration) *Client {
	return &Client{
		http: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		timeout: timeout,
	}
}

// Ready probes a peer's /readyz within probeTimeout. Probes bypass the
// peer failpoints: the chaos points model a flaky forwarding path, and
// keeping the membership signal clean is what brings a peer that an
// injected fault marked down back up on the next probe.
func (cl *Client) Ready(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s/readyz: %s", base, resp.Status)
	}
	return nil
}

// maxPeerResponse bounds a point reply; a legitimate result is a few KB.
const maxPeerResponse = 1 << 20

// RunPoint executes one point on a peer. The three peer failpoints thread
// through here — before the dial, as an injected timeout, and after a
// successful reply — so a chaos run exercises every failure position the
// failover walk can meet.
func (cl *Client) RunPoint(ctx context.Context, base string, preq PointRequest) (cpu.Result, error) {
	if faultinject.PeerDial.Fire() {
		return cpu.Result{}, errors.New("cluster: injected peer dial failure")
	}
	if faultinject.PeerTimeout.Fire() {
		return cpu.Result{}, errors.New("cluster: injected peer timeout")
	}
	body, err := json.Marshal(preq)
	if err != nil {
		return cpu.Result{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, cl.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/internal/v1/point", bytes.NewReader(body))
	if err != nil {
		return cpu.Result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.http.Do(req)
	if err != nil {
		return cpu.Result{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
	if err != nil {
		return cpu.Result{}, err
	}
	if faultinject.PeerErr.Fire() {
		return cpu.Result{}, errors.New("cluster: injected peer error")
	}
	if resp.StatusCode != http.StatusOK {
		return cpu.Result{}, fmt.Errorf("cluster: %s point call: %s: %s", base, resp.Status, firstLine(data))
	}
	var pr PointResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		return cpu.Result{}, fmt.Errorf("cluster: %s point reply: %w", base, err)
	}
	if preq.Key != "" && pr.Key != preq.Key {
		return cpu.Result{}, fmt.Errorf("cluster: %s computed key %s for %s (version skew?)", base, pr.Key, preq.Key)
	}
	res := pr.Result
	res.Sampling = pr.Sampling
	return res, nil
}

// firstLine trims an error body to something log-friendly.
func firstLine(data []byte) string {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		data = data[:i]
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return string(data)
}
