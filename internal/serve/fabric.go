package serve

// Fabric integration: the daemon plays both fabric roles.
//
// As a coordinator (Config.Fabric set), execBatch transparently fans a
// large job's trial range out across the peer fleet instead of running
// it on the local trial pool; results are bit-identical either way (the
// coordinator's contract), so the cache, the store, and every payload
// byte are unaffected by where trials ran — only the job status and
// /metrics say "fabric".
//
// As a worker, POST /v1/fabric/shard executes one shard sub-Spec on the
// local trial pool and returns the per-trial tallies + Welford partials
// the coordinator folds. Shard responses are cached in their own LRU,
// never the job result cache: a shard covering a Spec's whole range
// shares its content-address key with the job, but the cached bytes are
// a ShardResponse, not a ResultPayload, so the two caches must not mix.

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mcbatch"
)

// fabricKernelLabel is the by-kernel label reported for jobs that ran
// distributed: the fleet's nodes each pick their own executor, so no
// single kernel family describes the job.
const fabricKernelLabel = "fabric"

// execBatch runs spec on behalf of a job or campaign cell: through the
// fabric coordinator when one is configured and the batch is large
// enough to amortize the fan-out, on the local trial pool otherwise.
// The returned label names what ran for the job status and /metrics —
// a kernel family locally, "fabric" distributed.
func (s *Server) execBatch(ctx context.Context, spec mcbatch.Spec) (*mcbatch.Batch, string, error) {
	if s.cfg.Fabric != nil && spec.Trials >= s.cfg.FabricMinTrials {
		b, rep, err := s.cfg.Fabric.RunReport(ctx, spec)
		if err != nil {
			return nil, fabricKernelLabel, err
		}
		if rep != nil {
			return b, fabricKernelLabel, nil
		}
		// The coordinator degraded to a plain local run (no live peers,
		// or a single shard): report the kernel that actually executed.
		return b, core.KernelName(b.Kernel), nil
	}
	b, err := mcbatch.RunCtx(ctx, spec)
	if err != nil {
		return nil, "", err
	}
	return b, core.KernelName(b.Kernel), nil
}

// handleFabricShard executes one shard for a remote coordinator.
func (s *Server) handleFabricShard(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req fabric.ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad shard request: "+err.Error())
		return
	}
	spec, err := req.ToSpec()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if spec.Trials < 1 || spec.Trials > s.cfg.Limits.MaxTrials {
		writeErr(w, http.StatusBadRequest, "shard trials out of range")
		return
	}
	if exceedsCells(spec.Rows, spec.Cols, s.cfg.Limits.MaxCells) {
		writeErr(w, http.StatusBadRequest, "shard mesh exceeds the cell limit")
		return
	}
	key, err := spec.Hash()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}

	if body, ok := s.shardCache.get(key); ok {
		s.metrics.fabricShardsCached.Add(1)
		w.Header().Set("X-Meshsort-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
		return
	}

	// One slot of the job pool per in-flight shard, so a coordinator
	// cannot oversubscribe a worker past its configured concurrency.
	select {
	case s.fabricSem <- struct{}{}:
		defer func() { <-s.fabricSem }()
	case <-r.Context().Done():
		writeErr(w, http.StatusServiceUnavailable, "client went away waiting for a shard slot")
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.JobTimeout)
	defer cancel()
	spec.Workers = s.cfg.TrialWorkers
	start := monoNow()
	b, err := mcbatch.RunCtx(ctx, spec)
	if err != nil {
		s.metrics.fabricShardsFailed.Add(1)
		s.log.Warn("fabric shard failed", "key", key.String(),
			"offset", spec.TrialOffset, "trials", spec.Trials, "err", err)
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := fabric.BuildShardResponse(key.String(), b)
	body, err := json.Marshal(resp)
	if err != nil {
		s.metrics.fabricShardsFailed.Add(1)
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.shardCache.put(key, body)
	s.metrics.fabricShardsServed.Add(1)
	s.log.Info("fabric shard done", "key", key.String(),
		"algorithm", spec.Algorithm.ShortName(), "offset", spec.TrialOffset,
		"trials", spec.Trials, "kernel", core.KernelName(b.Kernel),
		"dur_ms", monoSince(start)/1e6)
	w.Header().Set("X-Meshsort-Cache", "miss")
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// peersResponse is the body of GET /v1/peers.
type peersResponse struct {
	// Fabric says whether this daemon coordinates a fleet at all.
	Fabric bool                `json:"fabric"`
	Stats  *fabric.Stats       `json:"stats,omitempty"`
	Peers  []fabric.PeerStatus `json:"peers,omitempty"`
}

// handlePeers reports the coordinator's fleet status.
func (s *Server) handlePeers(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Fabric == nil {
		writeJSON(w, http.StatusOK, peersResponse{})
		return
	}
	st := s.cfg.Fabric.Stats()
	writeJSON(w, http.StatusOK, peersResponse{
		Fabric: true,
		Stats:  &st,
		Peers:  s.cfg.Fabric.Peers(),
	})
}
