package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mcbatch"
	"repro/internal/stats"
)

// Config describes a coordinator's fleet and retry policy.
type Config struct {
	// Peers is the static list of worker meshsortd base addresses
	// ("host:port" or full URL). Empty means every Run executes locally.
	Peers []string
	// ShardTrials is the per-shard trial count (rounded up to the
	// 64-trial aggregation slice); 0 picks AutoShardTrials per run.
	ShardTrials int
	// MaxAttempts is the number of remote attempts per shard before the
	// coordinator gives up on the fleet and runs the shard locally;
	// 0 means 3.
	MaxAttempts int
	// RequestTimeout bounds one shard dispatch round-trip; 0 means 2m.
	RequestTimeout time.Duration
	// ProbeInterval is the /healthz probe cadence; 0 means 2s.
	ProbeInterval time.Duration
	// BackoffBase and BackoffMax shape the retry delays (see Backoff);
	// zero values use that type's defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Inflight caps concurrent shard dispatches; 0 means 2 per peer.
	Inflight int
	// LocalWorkers sizes the trial pool of local-fallback shard runs;
	// 0 uses GOMAXPROCS.
	LocalWorkers int
	// Client issues the HTTP requests. Default is a plain &http.Client{}
	// (per-request deadlines come from contexts).
	Client *http.Client
	// Logger receives dispatch and recovery logs. Default slog.Default().
	Logger *slog.Logger
}

// Stats is a cumulative counter snapshot for /metrics.
type Stats struct {
	// Runs counts Run calls; RunsLocal those that executed entirely
	// locally (no peers, one shard, or a non-distributable Spec).
	Runs      int64
	RunsLocal int64
	// ShardsRemote / ShardsLocal count completed shards by where they
	// ran; Retries counts failed dispatch attempts (each implies a
	// requeue onto another peer or, after MaxAttempts, local fallback).
	ShardsRemote int64
	ShardsLocal  int64
	Retries      int64
}

// Report describes one distributed Run for benchmarking: where each
// shard ran and how many attempts it took.
type Report struct {
	Shards []ShardReport `json:"shards"`
}

// ShardReport is the per-shard execution record of one Run.
type ShardReport struct {
	Offset   int    `json:"offset"`
	Trials   int    `json:"trials"`
	Peer     string `json:"peer,omitempty"` // empty when the shard ran locally
	Attempts int    `json:"attempts"`       // remote attempts that failed before success
	Local    bool   `json:"local,omitempty"`
}

// Coordinator fans a Spec's trial range out over a fleet of worker
// nodes and folds the shard results deterministically. Safe for
// concurrent Run calls; Close stops the health prober.
type Coordinator struct {
	cfg     Config
	peers   []*peer
	client  *http.Client
	log     *slog.Logger
	backoff Backoff

	rr atomic.Uint64 // round-robin peer cursor

	runs         atomic.Int64
	runsLocal    atomic.Int64
	shardsRemote atomic.Int64
	shardsLocal  atomic.Int64
	retries      atomic.Int64

	probeCancel context.CancelFunc
	wg          sync.WaitGroup

	// sleep pauses between retries; a test hook (default sleepCtx).
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a coordinator and starts its health prober. Call Close to
// stop the prober.
func New(cfg Config) *Coordinator {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	c := &Coordinator{
		cfg:     cfg,
		client:  cfg.Client,
		log:     cfg.Logger,
		backoff: Backoff{Base: cfg.BackoffBase, Max: cfg.BackoffMax},
		sleep:   sleepCtx,
	}
	for _, addr := range cfg.Peers {
		if a := normalizePeer(addr); a != "" {
			// Optimistic start: a peer is presumed up until a dispatch or
			// probe says otherwise, so the first Run needs no warm-up round.
			c.peers = append(c.peers, &peer{addr: a, up: true})
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.probeCancel = cancel
	c.wg.Add(1)
	go c.probeLoop(ctx)
	return c
}

// Close stops the health prober and waits for it to exit. In-flight Run
// calls are unaffected (they hold their own contexts).
func (c *Coordinator) Close() {
	c.probeCancel()
	c.wg.Wait()
}

// Peers reports the fleet's per-peer status in configuration order.
func (c *Coordinator) Peers() []PeerStatus {
	out := make([]PeerStatus, len(c.peers))
	for i, p := range c.peers {
		out[i] = p.status()
	}
	return out
}

// Stats returns the cumulative counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Runs:         c.runs.Load(),
		RunsLocal:    c.runsLocal.Load(),
		ShardsRemote: c.shardsRemote.Load(),
		ShardsLocal:  c.shardsLocal.Load(),
		Retries:      c.retries.Load(),
	}
}

// Run executes spec across the fleet and returns a Batch bit-identical
// to mcbatch.RunCtx(ctx, spec) on a single node — same Trials slice,
// same Steps accumulator bits — regardless of shard placement, retries,
// or mid-run peer deaths. Specs that cannot be distributed (functional
// fields, no peers, a single shard) run locally; Run never fails for
// lack of a fleet.
func (c *Coordinator) Run(ctx context.Context, spec mcbatch.Spec) (*mcbatch.Batch, error) {
	b, _, err := c.RunReport(ctx, spec)
	return b, err
}

// RunReport is Run plus the per-shard execution report (benchmark and
// smoke-test instrumentation). The report is nil for local runs.
func (c *Coordinator) RunReport(ctx context.Context, spec mcbatch.Spec) (*mcbatch.Batch, *Report, error) {
	c.runs.Add(1)
	if len(c.peers) == 0 || spec.Gen != nil || spec.Stream != nil {
		return c.runWholeLocal(ctx, spec)
	}
	shardTrials := c.cfg.ShardTrials
	if shardTrials <= 0 {
		shardTrials = AutoShardTrials(spec.Trials, len(c.peers))
	}
	shards := PlanShards(spec.Trials, shardTrials)
	if len(shards) <= 1 {
		return c.runWholeLocal(ctx, spec)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	trials := make([][]mcbatch.Trial, len(shards))
	parts := make([][]stats.Welford, len(shards))
	reports := make([]ShardReport, len(shards))
	errs := make([]error, len(shards))

	queue := make(chan int, len(shards))
	for i := range shards {
		queue <- i
	}
	close(queue)

	inflight := c.cfg.Inflight
	if inflight <= 0 {
		inflight = 2 * len(c.peers)
	}
	if inflight > len(shards) {
		inflight = len(shards)
	}
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range queue {
				trials[idx], parts[idx], reports[idx], errs[idx] = c.executeShard(runCtx, spec, shards[idx])
				if errs[idx] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Report the smallest-index root-cause error, so the failure is
	// deterministic (mirrors mcbatch.MapCtx): a shard failure cancels its
	// siblings, whose context.Canceled errors must not mask the cause.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}

	// Deterministic assembly: concatenate trial lists and slice partials
	// in shard (= offset) order. The partial concatenation equals the
	// unsplit run's slice list because shard boundaries are 64-aligned,
	// so one MergeAll fold reproduces the single-node Steps bits.
	all := make([]mcbatch.Trial, 0, spec.Trials)
	var partials []stats.Welford
	for i := range shards {
		all = append(all, trials[i]...)
		partials = append(partials, parts[i]...)
	}
	b := &mcbatch.Batch{Trials: all}
	b.Steps = stats.MergeAll(partials)
	if !welfordBitsEqual(b.Steps, mcbatch.AggregateSteps(all)) {
		// Unreachable while shards are slice-aligned (each partial was
		// already bit-checked against its shard's tallies); kept so an
		// aggregation regression can never ship a payload silently.
		return nil, nil, fmt.Errorf("fabric: merged Steps accumulator diverged from the unsplit fold")
	}
	return b, &Report{Shards: reports}, nil
}

// runWholeLocal executes the unsplit Spec on this node.
func (c *Coordinator) runWholeLocal(ctx context.Context, spec mcbatch.Spec) (*mcbatch.Batch, *Report, error) {
	c.runsLocal.Add(1)
	b, err := mcbatch.RunCtx(ctx, spec)
	return b, nil, err
}

// executeShard runs one shard to completion: remote attempts over the
// live peers with backoff between failures, then local fallback once the
// fleet is exhausted (no healthy peer, or MaxAttempts failures). Every
// path executes the identical sub-Spec, so recovery cannot change bits.
func (c *Coordinator) executeShard(ctx context.Context, spec mcbatch.Spec, sh Shard) ([]mcbatch.Trial, []stats.Welford, ShardReport, error) {
	sub := spec
	sub.TrialOffset = spec.TrialOffset + sh.Offset
	sub.Trials = sh.Trials
	sub.Workers, sub.Kernel = 0, 0
	rep := ShardReport{Offset: sub.TrialOffset, Trials: sub.Trials}

	key, err := sub.Hash()
	if err != nil {
		return nil, nil, rep, err
	}
	wantKey := key.String()
	req, err := RequestFromSpec(sub)
	if err != nil {
		return nil, nil, rep, err
	}

	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, rep, err
		}
		p := c.pickPeer()
		if p == nil {
			break // no healthy peer: degrade to local execution now
		}
		trials, parts, derr := c.dispatch(ctx, p, req, wantKey, sub.Trials)
		if derr == nil {
			rep.Peer = p.addr
			c.shardsRemote.Add(1)
			return trials, parts, rep, nil
		}
		if ctx.Err() != nil {
			return nil, nil, rep, ctx.Err()
		}
		// The shard is requeued: mark the peer down (the prober revives
		// it when /healthz answers), back off, and let the next attempt
		// pick another live peer.
		rep.Attempts++
		c.retries.Add(1)
		p.markDown(derr)
		c.log.Warn("fabric: shard dispatch failed",
			"peer", p.addr, "offset", sub.TrialOffset, "trials", sub.Trials,
			"attempt", attempt+1, "err", derr)
		if attempt < c.cfg.MaxAttempts-1 {
			if err := c.sleep(ctx, c.backoff.Delay(sh.Offset, attempt)); err != nil {
				return nil, nil, rep, err
			}
		}
	}

	// Graceful degradation: the fleet cannot serve this shard, so run it
	// here. Same sub-Spec, same bits — only slower.
	rep.Local = true
	c.shardsLocal.Add(1)
	c.log.Info("fabric: running shard locally",
		"offset", sub.TrialOffset, "trials", sub.Trials, "attempts", rep.Attempts)
	sub.Workers = c.cfg.LocalWorkers
	b, err := mcbatch.RunCtx(ctx, sub)
	if err != nil {
		return nil, nil, rep, err
	}
	return b.Trials, mcbatch.SliceWelfords(b.Trials), rep, nil
}

// dispatch sends one shard to one peer and decodes + verifies the result.
func (c *Coordinator) dispatch(ctx context.Context, p *peer, req ShardRequest, wantKey string, wantTrials int) ([]mcbatch.Trial, []stats.Welford, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	dctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(dctx, http.MethodPost, p.addr+ShardPath, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	start := monoNow()
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, nil, fmt.Errorf("fabric: peer returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var sr ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, nil, fmt.Errorf("fabric: decoding shard response: %w", err)
	}
	trials, parts, err := sr.Decode(wantKey, wantTrials)
	if err != nil {
		return nil, nil, err
	}
	p.latencyNs.Store(monoSince(start))
	p.served.Add(1)
	// A completed shard is stronger health evidence than any probe: if a
	// slow probe marked this peer down while the dispatch was in flight,
	// the served result overrules it.
	p.markUp()
	return trials, parts, nil
}

// pickPeer returns the next healthy peer in round-robin order, or nil
// when the whole fleet is down.
func (c *Coordinator) pickPeer() *peer {
	n := uint64(len(c.peers))
	if n == 0 {
		return nil
	}
	start := c.rr.Add(1)
	for i := uint64(0); i < n; i++ {
		if p := c.peers[(start+i)%n]; p.healthy() {
			return p
		}
	}
	return nil
}

// probeLoop periodically probes every peer's /healthz, reviving peers
// marked down by a failed dispatch and closing the requeue loop: die → shards drain to other peers → recover → probe
// marks up → new shards flow again.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			// A probe slower than a short interval is a missed beat, not
			// evidence of death: on a starved host a healthy peer's
			// /healthz can take longer than the cadence, and downing it
			// would drain in-flight runs to local fallback. Probes get a
			// generous timeout floor; the ticker just skips beats.
			timeout := c.cfg.ProbeInterval
			if timeout < 2*time.Second {
				timeout = 2 * time.Second
			}
			for _, p := range c.peers {
				pctx, cancel := context.WithTimeout(ctx, timeout)
				p.probe(pctx, c.client)
				cancel()
			}
		}
	}
}

// sleepCtx pauses for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
