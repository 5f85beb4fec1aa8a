// Multi-node integration tests: three in-process malecd nodes wired into
// one cluster, driving real campaigns through the engine's remote hook.
// External test package (cluster_test) because these tests need engine and
// server, both of which import cluster.
package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"malec/internal/cluster"
	"malec/internal/config"
	"malec/internal/engine"
	"malec/internal/faultinject"
	"malec/internal/server"
)

// testSpec is the campaign grid shared by every test and the single-node
// reference: 2 configs x 2 benchmarks x 3 seeds = 12 points.
func testSpec(t *testing.T) engine.CampaignSpec {
	t.Helper()
	var cfgs []config.Config
	for _, name := range []string{"Base1ldst", "MALEC"} {
		c, ok := config.Named(name)
		if !ok {
			t.Fatalf("config %q not registered", name)
		}
		cfgs = append(cfgs, c)
	}
	return engine.CampaignSpec{
		Configs:      cfgs,
		Benchmarks:   []string{"gzip", "mcf"},
		Instructions: 200000,
		Seeds:        []uint64{1, 2, 3},
		Workers:      6,
		Retries:      3,
	}
}

// referenceExports runs the spec on a fresh single node and returns its
// JSON and CSV exports — the byte-identity baseline.
func referenceExports(t *testing.T) ([]byte, []byte) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4, CacheDir: filepath.Join(t.TempDir(), "ref")})
	mgr := engine.NewCampaignManager(eng, engine.CampaignManagerOptions{})
	run, err := mgr.Start(testSpec(t))
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	waitCampaignDone(t, run)
	return exportBoth(t, run)
}

// waitCampaignDone polls a campaign run to completion.
func waitCampaignDone(t *testing.T, run *engine.CampaignRun) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := run.Status()
		if st.State == engine.CampaignDone {
			if st.Failed != 0 {
				t.Fatalf("campaign done with %d failed points", st.Failed)
			}
			return
		}
		if st.State == engine.CampaignCancelled {
			t.Fatal("campaign cancelled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign did not complete: %+v", run.Status())
}

// exportBoth materializes a completed campaign's JSON and CSV exports.
func exportBoth(t *testing.T, run *engine.CampaignRun) ([]byte, []byte) {
	t.Helper()
	camp, err := run.Export(context.Background())
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	js, err := camp.JSON()
	if err != nil {
		t.Fatalf("export JSON: %v", err)
	}
	cs, err := camp.CSV()
	if err != nil {
		t.Fatalf("export CSV: %v", err)
	}
	return js, cs
}

// node is one in-process cluster member: engine, cluster view, campaign
// manager and HTTP server on a real listener.
type node struct {
	url string
	eng *engine.Engine
	clu *cluster.Cluster
	mgr *engine.CampaignManager
	hs  *http.Server
}

// startNodes boots n cluster members on loopback listeners and waits for
// every node to see every peer healthy.
func startNodes(t *testing.T, n int) []*node {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*node, n)
	for i := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		eng := engine.New(engine.Options{
			Workers:  2,
			CacheDir: filepath.Join(t.TempDir(), fmt.Sprintf("node%d", i)),
		})
		clu := cluster.New(cluster.Options{
			Self:          urls[i],
			Peers:         peers,
			ProbeInterval: 25 * time.Millisecond,
			CallTimeout:   30 * time.Second,
		})
		mgr := engine.NewCampaignManager(eng, engine.CampaignManagerOptions{})
		api := server.New(eng, server.Options{Campaigns: mgr, Cluster: clu})
		hs := &http.Server{Handler: api}
		go hs.Serve(lns[i]) //nolint:errcheck // closed by cleanup
		clu.Start()
		nodes[i] = &node{url: urls[i], eng: eng, clu: clu, mgr: mgr, hs: hs}
		t.Cleanup(func() { clu.Stop(); hs.Close() })
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range nodes {
		for nd.clu.Stats().PeersHealthy != n-1 {
			if time.Now().After(deadline) {
				t.Fatalf("cluster never converged: node %s sees %d healthy peers, want %d",
					nd.url, nd.clu.Stats().PeersHealthy, n-1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nodes
}

// assertDenseRecords checks the streamed record log: cursors are exactly
// 1..N with every job index appearing exactly once — no lost and no
// duplicated points, whatever the routing did.
func assertDenseRecords(t *testing.T, run *engine.CampaignRun, wantPoints int) {
	t.Helper()
	recs, state, _ := run.RecordsAfter(0)
	if state != engine.CampaignDone {
		t.Fatalf("records state = %s, want done", state)
	}
	if len(recs) != wantPoints {
		t.Fatalf("streamed %d records, want %d", len(recs), wantPoints)
	}
	seenIdx := make(map[int]bool, wantPoints)
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has cursor %d, want dense %d", i, r.Seq, i+1)
		}
		if r.Error != "" {
			t.Fatalf("record %d carries error %q", i, r.Error)
		}
		if seenIdx[r.Index] {
			t.Fatalf("job index %d recorded twice", r.Index)
		}
		seenIdx[r.Index] = true
	}
}

// TestClusterCampaignDeterminism is the core guarantee: a campaign run
// through a 3-node cluster (points forwarded to their ring owners) exports
// byte-identical JSON and CSV to the same campaign on a single node.
func TestClusterCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node campaign in -short mode")
	}
	refJSON, refCSV := referenceExports(t)
	nodes := startNodes(t, 3)

	run, err := nodes[0].mgr.Start(testSpec(t))
	if err != nil {
		t.Fatalf("cluster campaign: %v", err)
	}
	waitCampaignDone(t, run)
	gotJSON, gotCSV := exportBoth(t, run)

	if !bytes.Equal(refJSON, gotJSON) {
		t.Errorf("3-node JSON export differs from single-node reference (%d vs %d bytes)", len(gotJSON), len(refJSON))
	}
	if !bytes.Equal(refCSV, gotCSV) {
		t.Errorf("3-node CSV export differs from single-node reference (%d vs %d bytes)", len(gotCSV), len(refCSV))
	}
	if st := nodes[0].clu.Stats(); st.Forwarded == 0 {
		t.Errorf("coordinator forwarded no points: %+v (remote hook not engaged?)", st)
	}
	if st := nodes[0].eng.Stats(); st.Remote == 0 {
		t.Errorf("engine served no remote points: %+v", st)
	}
	assertDenseRecords(t, run, 12)
}

// TestClusterFailoverKilledPeer kills one worker node as the campaign
// starts: its shard re-homes onto the survivors (counted as failovers) and
// the exports are still byte-identical to the single-node reference —
// degraded, never down.
func TestClusterFailoverKilledPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node campaign in -short mode")
	}
	refJSON, refCSV := referenceExports(t)
	nodes := startNodes(t, 3)

	run, err := nodes[0].mgr.Start(testSpec(t))
	if err != nil {
		t.Fatalf("cluster campaign: %v", err)
	}
	// Kill the worker immediately after launch: in-flight forwards to it
	// die with the connection, and the first failed call or probe marks
	// it down, so later points re-home without calling it.
	nodes[2].hs.Close()
	waitCampaignDone(t, run)
	gotJSON, gotCSV := exportBoth(t, run)

	if !bytes.Equal(refJSON, gotJSON) {
		t.Errorf("failover JSON export differs from reference (%d vs %d bytes)", len(gotJSON), len(refJSON))
	}
	if !bytes.Equal(refCSV, gotCSV) {
		t.Errorf("failover CSV export differs from reference (%d vs %d bytes)", len(gotCSV), len(refCSV))
	}
	if st := nodes[0].clu.Stats(); st.Failovers == 0 {
		t.Errorf("no failovers recorded with a dead owner: %+v", st)
	}
	assertDenseRecords(t, run, 12)
}

// TestClusterChaosCampaign arms all three peer failpoints at 25% and runs
// the campaign through the cluster: every forwarded call can fail to dial,
// time out, or lose its reply, yet the campaign completes with zero lost
// or duplicated points and byte-identical exports.
func TestClusterChaosCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos campaign in -short mode")
	}
	refJSON, refCSV := referenceExports(t)
	nodes := startNodes(t, 3)

	faultinject.PeerDial.Arm(0.25)
	faultinject.PeerTimeout.Arm(0.25)
	faultinject.PeerErr.Arm(0.25)
	defer func() {
		faultinject.PeerDial.Disarm()
		faultinject.PeerTimeout.Disarm()
		faultinject.PeerErr.Disarm()
	}()

	run, err := nodes[0].mgr.Start(testSpec(t))
	if err != nil {
		t.Fatalf("chaos campaign: %v", err)
	}
	waitCampaignDone(t, run)
	gotJSON, gotCSV := exportBoth(t, run)

	if !bytes.Equal(refJSON, gotJSON) {
		t.Errorf("chaos JSON export differs from reference (%d vs %d bytes)", len(gotJSON), len(refJSON))
	}
	if !bytes.Equal(refCSV, gotCSV) {
		t.Errorf("chaos CSV export differs from reference (%d vs %d bytes)", len(gotCSV), len(refCSV))
	}
	assertDenseRecords(t, run, 12)
	t.Logf("chaos stats: cluster=%+v engine=%+v", nodes[0].clu.Stats(), nodes[0].eng.Stats())
}
