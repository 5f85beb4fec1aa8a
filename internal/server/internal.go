package server

import (
	"net/http"

	"malec/internal/cluster"
	"malec/internal/engine"
	"malec/internal/trace"
)

// handleInternalPoint implements POST /internal/v1/point: one simulation
// point forwarded by a cluster peer. The handler runs under WithLocalOnly
// so the receiving node executes the point itself (forwarding again could
// loop), and it deliberately skips the admission gate: peer traffic is the
// cluster's own load balancing, already bounded by the sender's campaign
// concurrency, and shedding it would only push the point back to a slower
// fallback. It also keeps serving during drain — in-flight campaigns on
// peers should finish their forwarded points even as this node winds down.
func (s *Server) handleInternalPoint(w http.ResponseWriter, r *http.Request) {
	var req cluster.PointRequest
	if !readBody(w, r, &req) {
		return
	}
	if _, ok := trace.Profiles[req.Benchmark]; !ok {
		writeError(w, http.StatusBadRequest, "unknown benchmark %q", req.Benchmark)
		return
	}
	if req.Instructions <= 0 {
		req.Instructions = engine.DefaultInstructions
	}
	if req.Instructions > s.opts.MaxInstructions {
		writeError(w, http.StatusBadRequest,
			"instructions %d exceeds limit %d", req.Instructions, s.opts.MaxInstructions)
		return
	}
	if err := validSampling(req.Config.Sampling); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k := engine.KeyFor(req.Config, req.Benchmark, req.Instructions, req.Seed)
	if req.Key != "" && req.Key != k.String() {
		// The sender and this node disagree on the canonical key — version
		// skew. Refusing (instead of answering under our key) makes the
		// sender fall back rather than cache a result at the wrong address.
		writeError(w, http.StatusConflict,
			"key mismatch: computed %s, request carries %s (version skew?)", k, req.Key)
		return
	}
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	ctx = engine.WithLocalOnly(ctx)
	res, src, err := s.eng.RunContext(ctx, req.Config, req.Benchmark, req.Instructions, req.Seed)
	if err != nil {
		s.writeSimError(w, err)
		return
	}
	result, err := s.resultJSON(k, res, src)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	// The members of cluster.PointResponse, in order, up to "result".
	head := make([]byte, 0, 256+len(result))
	head = append(head, `{"key":`...)
	head = appendJSONString(head, k.String())
	head = append(head, `,"source":`...)
	head = appendJSONString(head, string(src))
	writeResultReply(w, head, result, res.Sampling)
}
