package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/faultinject"
)

// fakePeer is a scriptable peer: a /readyz whose verdict can flip and an
// /internal/v1/point that can succeed (echoing the request key), fail
// with a status, or stall.
type fakePeer struct {
	srv        *httptest.Server
	ready      atomic.Bool
	pointCalls atomic.Int64
	failStatus atomic.Int64  // non-zero: point calls return this status
	delay      atomic.Int64  // nanoseconds to stall each point call
	cycles     atomic.Uint64 // Cycles value stamped into results
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	f := &fakePeer{}
	f.ready.Store(true)
	f.cycles.Store(12345)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !f.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /internal/v1/point", func(w http.ResponseWriter, r *http.Request) {
		f.pointCalls.Add(1)
		if d := f.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if st := f.failStatus.Load(); st != 0 {
			http.Error(w, "injected failure", int(st))
			return
		}
		var req PointRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := PointResponse{
			Key:    req.Key,
			Source: "simulated",
			Result: cpu.Result{Benchmark: req.Benchmark, Cycles: f.cycles.Load()},
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// testSelf is the fictional advertised URL of the node under test.
const testSelf = "http://self.invalid:1"

// newProbedCluster builds an unstarted cluster whose peers are the fakes
// and probes each peer once. With no probe loop running, a peer's health
// changes only when the test probes or routes, so every assertion about
// it is deterministic.
func newProbedCluster(t *testing.T, fakes ...*fakePeer) *Cluster {
	t.Helper()
	var urls []string
	for _, f := range fakes {
		urls = append(urls, f.srv.URL)
	}
	c := New(Options{Self: testSelf, Peers: urls})
	probeAll(c)
	return c
}

// probeAll runs one /readyz probe against every peer.
func probeAll(c *Cluster) {
	for _, p := range c.order {
		c.probeOnce(p)
	}
}

// peerOwnedKey returns a key whose ring owner is the given node.
func peerOwnedKey(t *testing.T, c *Cluster, node string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("abc%06d:gzip:1000000:%d", i, i)
		if c.Ring().Owner(k) == node {
			return k
		}
	}
	t.Fatal("no key owned by node found")
	return ""
}

func testPointArgs() (config.Config, string, int, uint64) {
	cfg, _ := config.Named("MALEC")
	return cfg, "gzip", 100000, 1
}

// TestMembershipRiseFall checks the probe verdict in both directions: one
// passing probe flips a peer up, one failing probe flips it down.
func TestMembershipRiseFall(t *testing.T) {
	f := newFakePeer(t)
	f.ready.Store(false)
	c := newProbedCluster(t, f)
	if got := c.Stats().PeersHealthy; got != 0 {
		t.Fatalf("PeersHealthy after a failed probe = %d, want 0", got)
	}
	f.ready.Store(true)
	probeAll(c)
	if got := c.Stats().PeersHealthy; got != 1 {
		t.Fatalf("PeersHealthy after one passing probe = %d, want 1", got)
	}
	f.ready.Store(false)
	probeAll(c)
	if got := c.Stats().PeersHealthy; got != 0 {
		t.Fatalf("PeersHealthy after one failing probe = %d, want 0", got)
	}
}

// TestNewCanonicalizesMembers checks that member names are spelled one
// way on every node: whitespace and trailing slashes are trimmed, and
// empties, duplicates and self are dropped from the peer list, so two
// nodes handed differently spelled lists still agree on every owner.
func TestNewCanonicalizesMembers(t *testing.T) {
	a := New(Options{Self: "http://a/", Peers: []string{"http://a", "http://b/", "http://b", ""}})
	b := New(Options{Self: "http://b", Peers: []string{"http://a"}})
	if a.Size() != 2 || b.Size() != 2 {
		t.Fatalf("Size() = %d and %d, want 2 and 2", a.Size(), b.Size())
	}
	if a.Self() != "http://a" {
		t.Fatalf("Self() = %q, want %q", a.Self(), "http://a")
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%04d", i)
		if oa, ob := a.Ring().Owner(k), b.Ring().Owner(k); oa != ob {
			t.Fatalf("nodes disagree on the owner of %s: %s vs %s", k, oa, ob)
		}
	}
}

// TestRouteForwardsToOwner checks the happy path: a peer-owned point is
// executed remotely, a self-owned point is declined to local execution.
func TestRouteForwardsToOwner(t *testing.T) {
	f := newFakePeer(t)
	c := newProbedCluster(t, f)
	cfg, bench, instr, seed := testPointArgs()

	key := peerOwnedKey(t, c, f.srv.URL)
	res, handled, err := c.Route(context.Background(), key, cfg, bench, instr, seed)
	if err != nil || !handled {
		t.Fatalf("Route(peer-owned) = handled=%v err=%v, want handled", handled, err)
	}
	if res.Cycles != 12345 {
		t.Fatalf("forwarded result Cycles = %d, want the peer's 12345", res.Cycles)
	}
	if st := c.Stats(); st.Forwarded != 1 || st.Failovers != 0 {
		t.Fatalf("stats = %+v, want Forwarded=1 Failovers=0", st)
	}

	selfKey := peerOwnedKey(t, c, c.Self())
	_, handled, err = c.Route(context.Background(), selfKey, cfg, bench, instr, seed)
	if err != nil || handled {
		t.Fatalf("Route(self-owned) = handled=%v err=%v, want local", handled, err)
	}
	if st := c.Stats(); st.Forwarded != 1 || st.Failovers != 0 {
		t.Fatalf("self-owned point touched counters: %+v", st)
	}
}

// TestRouteFallsBackLocalWhenPeerDown checks "degraded, never down": a
// peer-owned point with the owner unreachable is declined to local
// execution and counted as a failover.
func TestRouteFallsBackLocalWhenPeerDown(t *testing.T) {
	f := newFakePeer(t)
	f.ready.Store(false) // fails its probe; the peer stays down
	c := newProbedCluster(t, f)
	cfg, bench, instr, seed := testPointArgs()
	key := peerOwnedKey(t, c, f.srv.URL)
	_, handled, err := c.Route(context.Background(), key, cfg, bench, instr, seed)
	if err != nil || handled {
		t.Fatalf("Route(owner down) = handled=%v err=%v, want local fallback", handled, err)
	}
	if st := c.Stats(); st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", st.Failovers)
	}
	if f.pointCalls.Load() != 0 {
		t.Fatalf("down peer received %d point calls", f.pointCalls.Load())
	}
}

// TestFailedCallMarksPeerDown checks the one health state from the
// forwarding side: a failed point call marks the peer down and falls back
// to local, later points skip the peer without an HTTP call, and the next
// passing probe restores forwarding.
func TestFailedCallMarksPeerDown(t *testing.T) {
	f := newFakePeer(t)
	c := newProbedCluster(t, f)
	cfg, bench, instr, seed := testPointArgs()
	key := peerOwnedKey(t, c, f.srv.URL)

	f.failStatus.Store(http.StatusInternalServerError)
	_, handled, err := c.Route(context.Background(), key, cfg, bench, instr, seed)
	if err != nil || handled {
		t.Fatalf("Route(failing peer) = handled=%v err=%v, want local fallback", handled, err)
	}
	st := c.Stats()
	if st.ForwardErrors != 1 || st.PeersHealthy != 0 || st.Failovers != 1 {
		t.Fatalf("stats after a failed call = %+v, want ForwardErrors=1 PeersHealthy=0 Failovers=1", st)
	}

	// While down, routing skips the peer without an HTTP call.
	calls := f.pointCalls.Load()
	if _, handled, _ := c.Route(context.Background(), key, cfg, bench, instr, seed); handled {
		t.Fatal("Route forwarded to a peer marked down")
	}
	if f.pointCalls.Load() != calls {
		t.Fatalf("down peer received %d point calls", f.pointCalls.Load()-calls)
	}

	// The peer recovers; the next probe is the half-open check.
	f.failStatus.Store(0)
	probeAll(c)
	_, handled, err = c.Route(context.Background(), key, cfg, bench, instr, seed)
	if err != nil || !handled {
		t.Fatalf("Route(after recovery probe) = handled=%v err=%v, want forwarded", handled, err)
	}
	if st := c.Stats(); st.Forwarded != 1 || st.PeersHealthy != 1 {
		t.Fatalf("stats after recovery = %+v, want Forwarded=1 PeersHealthy=1", st)
	}
}

// TestRouteFailsOverToSuccessor checks the rank > 0 branch: with the
// owner failing, the walk's next call goes to the key's ring successor,
// which serves the point.
func TestRouteFailsOverToSuccessor(t *testing.T) {
	f1, f2 := newFakePeer(t), newFakePeer(t)
	c := newProbedCluster(t, f1, f2)
	byURL := map[string]*fakePeer{f1.srv.URL: f1, f2.srv.URL: f2}
	var key string
	for i := 0; key == "" && i < 10000; i++ {
		k := fmt.Sprintf("abc%06d:gzip:1000000:%d", i, i)
		if c.Ring().Owners(k, 3)[2] == c.Self() {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no key with self last in its preference order found")
	}
	order := c.Ring().Owners(key, 3)
	owner, successor := byURL[order[0]], byURL[order[1]]
	owner.failStatus.Store(http.StatusInternalServerError)
	successor.cycles.Store(777)

	cfg, bench, instr, seed := testPointArgs()
	res, handled, err := c.Route(context.Background(), key, cfg, bench, instr, seed)
	if err != nil || !handled {
		t.Fatalf("Route(owner failing) = handled=%v err=%v, want served by successor", handled, err)
	}
	if res.Cycles != 777 {
		t.Fatalf("result Cycles = %d, want the successor's 777", res.Cycles)
	}
	if st := c.Stats(); st.Forwarded != 1 || st.Failovers != 1 || st.ForwardErrors != 1 {
		t.Fatalf("stats = %+v, want Forwarded=1 Failovers=1 ForwardErrors=1", st)
	}
	if owner.pointCalls.Load() != 1 || successor.pointCalls.Load() != 1 {
		t.Fatalf("point calls owner=%d successor=%d, want 1 each", owner.pointCalls.Load(), successor.pointCalls.Load())
	}
}

// TestRoutePeerFailpoints checks the chaos path: with the peer-dial
// failpoint always firing, the one forwarded call fails and routing
// degrades to local execution — and with it disarmed again, the next
// probe restores forwarding.
func TestRoutePeerFailpoints(t *testing.T) {
	f := newFakePeer(t)
	c := newProbedCluster(t, f)
	cfg, bench, instr, seed := testPointArgs()
	key := peerOwnedKey(t, c, f.srv.URL)

	faultinject.PeerDial.Arm(1.0)
	defer faultinject.PeerDial.Disarm()
	_, handled, err := c.Route(context.Background(), key, cfg, bench, instr, seed)
	if err != nil || handled {
		t.Fatalf("Route(dial faults) = handled=%v err=%v, want local fallback", handled, err)
	}
	st := c.Stats()
	if st.ForwardErrors != 1 || st.Failovers != 1 {
		t.Fatalf("stats under faults = %+v, want ForwardErrors=1 Failovers=1", st)
	}
	if f.pointCalls.Load() != 0 {
		t.Fatalf("dial failpoint let %d calls reach the peer", f.pointCalls.Load())
	}

	faultinject.PeerDial.Disarm()
	probeAll(c)
	_, handled, err = c.Route(context.Background(), key, cfg, bench, instr, seed)
	if err != nil || !handled {
		t.Fatalf("Route(disarmed) = handled=%v err=%v, want forwarded", handled, err)
	}
}

// TestRouteCancelledContext checks that the caller's own cancellation is
// surfaced as an error, not silently converted to a local fallback (the
// engine must see the cancellation), and is not held against the peer: it
// stays up and no forward error is counted.
func TestRouteCancelledContext(t *testing.T) {
	f := newFakePeer(t)
	f.delay.Store(int64(200 * time.Millisecond))
	c := newProbedCluster(t, f)
	cfg, bench, instr, seed := testPointArgs()
	key := peerOwnedKey(t, c, f.srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := c.Route(ctx, key, cfg, bench, instr, seed)
	if err == nil {
		t.Fatal("Route(cancelled ctx) returned nil error")
	}
	if st := c.Stats(); st.PeersHealthy != 1 || st.ForwardErrors != 0 {
		t.Fatalf("stats after a cancelled call = %+v, want PeersHealthy=1 ForwardErrors=0", st)
	}
}
