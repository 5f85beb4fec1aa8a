package main

// cluster-forward: three in-process malecd nodes in cluster mode over
// loopback. A campaign of cheap exact points goes to one coordinator,
// which forwards the points the ring assigns to the other two (about two
// thirds), so peer forwarding is a visible share of every point.

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"malec/internal/config"
	"malec/internal/engine"
)

const (
	// clusterInstructions keeps points cheap, so forwarding shows.
	clusterInstructions = 4000
	// clusterNodes is the cluster size.
	clusterNodes = 3
	// clusterVerifyEvery selects the units whose export is recomputed on a
	// single-node reference: recomputing all of them would take as long as
	// the timed phase's simulations.
	clusterVerifyEvery = 4
)

// clusterBenchmarks is two benchmarks per paper suite.
var clusterBenchmarks = []string{"gzip", "mcf", "swim", "art", "cjpeg", "mpeg2dec"}

// startCluster starts size nodes that list each other as peers and waits
// until every node sees every peer healthy.
func startCluster(size int, nc nodeConfig) ([]*node, error) {
	lns := make([]net.Listener, size)
	urls := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	var nodes []*node
	for i, ln := range lns {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := nc
		cfg.ln, cfg.peers = ln, peers
		n, err := startNode(cfg)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			closeNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, n)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range nodes {
		for n.clu.Stats().PeersHealthy < size-1 {
			if time.Now().After(deadline) {
				closeNodes(nodes)
				return nil, fmt.Errorf("cluster peers not healthy after 30s")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nodes, nil
}

// closeNodes stops every node.
func closeNodes(nodes []*node) {
	for _, n := range nodes {
		n.close()
	}
}

func clusterForward(b *bench) (*outcome, error) {
	o := &outcome{}
	client := newClient(2)
	nodes, closeAll, err := setups(o, 3, func() ([]*node, func(), error) {
		nodes, err := startCluster(clusterNodes, nodeConfig{})
		if err != nil {
			return nil, nil, err
		}
		return nodes, func() { closeNodes(nodes) }, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { closeAll() }()
	for _, n := range nodes {
		b.watch(n.eng)
	}
	coord := nodes[0]
	instr := b.scaled(clusterInstructions, 1000)
	var configs []string
	for _, c := range config.Fig4Configs() {
		configs = append(configs, c.Name)
	}
	// Each unit adds one instruction to every point, so no point is ever
	// cached on any node while the traces (keyed by benchmark and seed)
	// are extended rather than regenerated and held again.
	var grids []gridBody
	var runs []*campaignRun
	err = b.timed(o, 2, func(i int) (float64, error) {
		grid := gridBody{Configs: configs, Benchmarks: clusterBenchmarks, Instructions: instr + i,
			Seeds: []uint64{b.seed, b.seed + 1}}
		start := time.Now()
		run, err := runCampaign(client, coord.url, grid)
		if err != nil {
			return 0, err
		}
		wall := time.Since(start).Seconds()
		grids, runs = append(grids, grid), append(runs, run)
		o.attempted += run.records
		o.failed += run.failed
		if run.records != grid.points() {
			o.failed++
		}
		o.unit(run.records, wall, run.lat)
		return wall, nil
	})
	if err != nil {
		return nil, err
	}

	// Every fourth export, and the last, must equal a single-node reference
	// of the same grid.
	ref := engine.New(engine.Options{})
	for k, grid := range grids {
		if k%clusterVerifyEvery != 0 && k != len(grids)-1 {
			continue
		}
		spec := engine.CampaignSpec{Benchmarks: grid.Benchmarks, Instructions: grid.Instructions, Seeds: grid.Seeds}
		for _, name := range grid.Configs {
			c, _ := config.Named(name)
			spec.Configs = append(spec.Configs, c)
		}
		camp, err := ref.RunCampaign(spec)
		if err != nil {
			return nil, err
		}
		want, err := camp.CSV()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(want, runs[k].csv) {
			o.failed += runs[k].records
			fmt.Printf("# cluster-forward: unit %d export differs from the single-node reference\n", k)
		}
	}
	var forwarded uint64
	for _, n := range nodes {
		forwarded += n.clu.Stats().Forwarded
	}
	share := float64(forwarded) / float64(o.allOps)
	b.layers["cluster.forward_share"] = share
	o.extra = append(o.extra,
		metric{"points_per_s", median(o.rates), "1/s"},
		metric{"forward_share", share, "ratio"})
	closeAll()
	closeAll = func() {}
	for _, n := range nodes {
		b.absorbNode(n)
	}
	return o, nil
}
