package cluster

import (
	"sync/atomic"
	"time"
)

// peer is one remote member's live state: a single health bit. A
// successful /readyz probe sets up; a failed probe or a failed forwarded
// call clears it, so a peer whose point API fails while /readyz still
// answers (version skew, a wedged handler) stops receiving forwards until
// the next probe lets one call through again. Peers start down — a node
// that never answered a probe never receives a forward.
type peer struct {
	url string
	up  atomic.Bool
}

// probeLoop drives one peer's health: an immediate probe at startup (so a
// live cluster converges in one round trip, not one interval), then one
// probe per interval until the cluster stops.
func (c *Cluster) probeLoop(p *peer) {
	defer c.wg.Done()
	c.probeOnce(p)
	t := time.NewTicker(c.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeOnce(p)
		}
	}
}

// probeOnce performs one /readyz round trip and records its verdict. A
// draining or dead peer fails its probe, so load balancers and this
// membership view converge on the same signal.
func (c *Cluster) probeOnce(p *peer) {
	p.up.Store(c.client.Ready(p.url) == nil)
}
