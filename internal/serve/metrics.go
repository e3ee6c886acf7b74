package serve

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/store"
)

// metrics is meshsortd's dependency-free observability surface: a fixed
// set of counters, gauges and one histogram, rendered in the Prometheus
// text exposition format by writeProm. Everything is atomics — the hot
// path (one job completion) touches a handful of counters and never takes
// a lock — and the rendering order is a fixed code sequence, so scrapes
// are deterministic and detrand-clean (no map iteration).
type metrics struct {
	jobsSubmitted atomic.Int64 // accepted submissions, incl. cache hits and dedups
	jobsRejected  atomic.Int64 // queue-full 429s
	jobsDeduped   atomic.Int64 // submissions attached to an identical in-flight job
	jobsOK        atomic.Int64 // jobs completed successfully (executed, not cached)
	jobsFailed    atomic.Int64 // jobs that errored
	jobsCanceled  atomic.Int64 // jobs stopped by timeout or shutdown
	// The cache is layered: the in-memory LRU answers first, then the
	// durable store (read-through). The two hit counters are reported as
	// one labelled series so dashboards can tell a warm process from a
	// warm disk.
	cacheHitsMemory atomic.Int64 // submissions served from the in-memory LRU
	cacheHitsStore  atomic.Int64 // submissions served from the durable store
	cacheMisses     atomic.Int64 // submissions that had to execute
	storePuts       atomic.Int64 // payloads persisted write-behind
	storeErrors     atomic.Int64 // store get/put failures (served degraded, not fatal)
	running         atomic.Int64 // jobs currently executing
	trialNs         nsHistogram  // ns per trial of completed jobs
	jobsByKernel    kernelCounters

	campaignsSubmitted  atomic.Int64 // accepted campaign submissions, incl. dedups
	campaignsDeduped    atomic.Int64 // submissions attached to an identical live campaign
	campaignsDone       atomic.Int64 // campaigns that completed their grid
	campaignsFailed     atomic.Int64 // campaigns stopped by a failing cell
	campaignsResumed    atomic.Int64 // campaign launches that skipped ≥1 stored cell
	campaignsRunning    atomic.Int64 // campaigns currently executing cells
	campaignCellsRun    atomic.Int64 // cells executed by campaign runners
	campaignCellsSkip   atomic.Int64 // cells skipped because the store already held them
	campaignsInterrupt  atomic.Int64 // campaigns stopped by shutdown/cancellation
	campaignExportBytes atomic.Int64 // bytes served by campaign exports

	// Worker-side fabric counters: shards this daemon executed for a
	// remote coordinator. The coordinator-side counters live in the
	// fabric.Coordinator and are sampled at scrape time (promSample).
	fabricShardsServed atomic.Int64 // shard requests executed successfully
	fabricShardsCached atomic.Int64 // shard requests answered from the shard cache
	fabricShardsFailed atomic.Int64 // shard requests that errored
}

// kernelLabels is the fixed render order of the by-kernel job counter:
// the two served kernels (span for permutation jobs, sliced for 0-1
// jobs), plus "fabric" for jobs fanned out across the peer fleet (no
// single kernel describes those). A fixed slice (not a map) keeps the
// scrape deterministic and the observe path lock-free.
var kernelLabels = []string{"span", "sliced", fabricKernelLabel}

// kernelCounters counts completed jobs by effective kernel; the extra
// slot, rendered as "other", collects names outside kernelLabels.
type kernelCounters struct {
	counts []atomic.Int64
}

func newKernelCounters() kernelCounters {
	return kernelCounters{counts: make([]atomic.Int64, len(kernelLabels)+1)}
}

func (k *kernelCounters) observe(name string) {
	for i, l := range kernelLabels {
		if l == name {
			k.counts[i].Add(1)
			return
		}
	}
	k.counts[len(kernelLabels)].Add(1)
}

// trialNsBuckets are the upper bounds (inclusive, in nanoseconds) of the
// ns/trial histogram: 1µs to 100ms in a 1-5 ladder, covering a tiny 8×8
// span-kernel trial up to a large mesh on a loaded box.
var trialNsBuckets = [...]int64{
	1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
	1_000_000, 5_000_000, 10_000_000, 50_000_000, 100_000_000,
}

// nsHistogram is a fixed-bucket cumulative histogram in the Prometheus
// sense: counts[i] is the number of observations ≤ trialNsBuckets[i], the
// last slot is +Inf.
type nsHistogram struct {
	counts [len(trialNsBuckets) + 1]atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

func (h *nsHistogram) observe(ns int64) {
	i := 0
	for i < len(trialNsBuckets) && ns > trialNsBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(ns)
	h.n.Add(1)
}

// promSample carries the point-in-time values writeProm renders as
// gauges: they live in the queue channel, the cache, and the store, not
// in the counter set, so the caller samples them at scrape time.
type promSample struct {
	queueDepth, queueCap int
	cacheLen, cacheCap   int
	// storeStats is nil when the daemon runs without a durable store; the
	// store series are then omitted entirely (absent, not zero), so a
	// dashboard can tell "no store" from "empty store".
	storeStats *store.Stats
	// fabricStats/fabricPeers are nil when the daemon coordinates no
	// fleet; the coordinator series are then omitted entirely, like the
	// store's. Peers render in configuration order — fixed, no map.
	fabricStats *fabric.Stats
	fabricPeers []fabric.PeerStatus
}

// writeProm renders the metrics.
func (m *metrics) writeProm(w io.Writer, s promSample) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("meshsortd_jobs_submitted_total",
		"Accepted job submissions, including cache hits and singleflight dedups.",
		m.jobsSubmitted.Load())
	counter("meshsortd_jobs_rejected_total",
		"Submissions rejected with 429 because the job queue was full.",
		m.jobsRejected.Load())
	counter("meshsortd_jobs_deduped_total",
		"Submissions attached to an identical job already queued or running.",
		m.jobsDeduped.Load())

	fmt.Fprintf(w, "# HELP meshsortd_jobs_completed_total Executed jobs by terminal status.\n")
	fmt.Fprintf(w, "# TYPE meshsortd_jobs_completed_total counter\n")
	fmt.Fprintf(w, "meshsortd_jobs_completed_total{status=\"ok\"} %d\n", m.jobsOK.Load())
	fmt.Fprintf(w, "meshsortd_jobs_completed_total{status=\"error\"} %d\n", m.jobsFailed.Load())
	fmt.Fprintf(w, "meshsortd_jobs_completed_total{status=\"canceled\"} %d\n", m.jobsCanceled.Load())

	fmt.Fprintf(w, "# HELP meshsortd_jobs_by_kernel_total Successfully executed jobs by effective kernel.\n")
	fmt.Fprintf(w, "# TYPE meshsortd_jobs_by_kernel_total counter\n")
	for i, label := range kernelLabels {
		fmt.Fprintf(w, "meshsortd_jobs_by_kernel_total{kernel=%q} %d\n", label, m.jobsByKernel.counts[i].Load())
	}
	fmt.Fprintf(w, "meshsortd_jobs_by_kernel_total{kernel=\"other\"} %d\n",
		m.jobsByKernel.counts[len(kernelLabels)].Load())

	fmt.Fprintf(w, "# HELP meshsortd_cache_hits_total Submissions answered without execution, by cache layer.\n")
	fmt.Fprintf(w, "# TYPE meshsortd_cache_hits_total counter\n")
	fmt.Fprintf(w, "meshsortd_cache_hits_total{layer=\"memory\"} %d\n", m.cacheHitsMemory.Load())
	fmt.Fprintf(w, "meshsortd_cache_hits_total{layer=\"store\"} %d\n", m.cacheHitsStore.Load())
	counter("meshsortd_cache_misses_total",
		"Submissions whose key was absent from every cache layer.",
		m.cacheMisses.Load())

	gauge("meshsortd_queue_depth", "Jobs waiting in the queue.", int64(s.queueDepth))
	gauge("meshsortd_queue_capacity", "Capacity of the job queue.", int64(s.queueCap))
	gauge("meshsortd_jobs_running", "Jobs currently executing.", m.running.Load())
	gauge("meshsortd_cache_entries", "Entries in the in-memory result cache.", int64(s.cacheLen))
	gauge("meshsortd_cache_capacity", "Capacity of the in-memory result cache.", int64(s.cacheCap))

	if s.storeStats != nil {
		counter("meshsortd_store_puts_total",
			"Result payloads persisted to the durable store (write-behind).",
			m.storePuts.Load())
		counter("meshsortd_store_errors_total",
			"Durable-store get/put failures; the daemon degrades to compute-only.",
			m.storeErrors.Load())
		counter("meshsortd_store_compactions_total",
			"Log compaction passes run by the durable store.",
			s.storeStats.Compactions)
		gauge("meshsortd_store_entries", "Live keys in the durable store.",
			int64(s.storeStats.Entries))
		gauge("meshsortd_store_bytes", "Live record bytes in the durable store.",
			s.storeStats.LiveBytes)
		gauge("meshsortd_store_dead_bytes",
			"Record bytes shadowed by rewrites, reclaimed at the next compaction.",
			s.storeStats.DeadBytes)
		gauge("meshsortd_store_log_bytes", "Size of the durable store's record log.",
			s.storeStats.LogBytes)
		gauge("meshsortd_store_recovered_bytes",
			"Torn-tail bytes truncated by crash recovery at open.",
			s.storeStats.RecoveredBytes)
	}

	counter("meshsortd_campaigns_submitted_total",
		"Accepted campaign submissions, including dedups onto live campaigns.",
		m.campaignsSubmitted.Load())
	counter("meshsortd_campaigns_deduped_total",
		"Campaign submissions attached to an identical running or finished campaign.",
		m.campaignsDeduped.Load())
	counter("meshsortd_campaigns_resumed_total",
		"Campaign launches that skipped at least one already-stored cell.",
		m.campaignsResumed.Load())
	fmt.Fprintf(w, "# HELP meshsortd_campaigns_completed_total Campaigns by terminal status.\n")
	fmt.Fprintf(w, "# TYPE meshsortd_campaigns_completed_total counter\n")
	fmt.Fprintf(w, "meshsortd_campaigns_completed_total{status=\"done\"} %d\n", m.campaignsDone.Load())
	fmt.Fprintf(w, "meshsortd_campaigns_completed_total{status=\"failed\"} %d\n", m.campaignsFailed.Load())
	fmt.Fprintf(w, "meshsortd_campaigns_completed_total{status=\"interrupted\"} %d\n", m.campaignsInterrupt.Load())
	fmt.Fprintf(w, "# HELP meshsortd_campaign_cells_total Campaign cells by outcome.\n")
	fmt.Fprintf(w, "# TYPE meshsortd_campaign_cells_total counter\n")
	fmt.Fprintf(w, "meshsortd_campaign_cells_total{outcome=\"executed\"} %d\n", m.campaignCellsRun.Load())
	fmt.Fprintf(w, "meshsortd_campaign_cells_total{outcome=\"skipped\"} %d\n", m.campaignCellsSkip.Load())
	gauge("meshsortd_campaigns_running", "Campaigns currently executing cells.",
		m.campaignsRunning.Load())
	counter("meshsortd_campaign_export_bytes_total",
		"Bytes served by campaign export downloads.",
		m.campaignExportBytes.Load())

	fmt.Fprintf(w, "# HELP meshsortd_fabric_shards_served_total Fabric shards this worker executed for remote coordinators, by outcome.\n")
	fmt.Fprintf(w, "# TYPE meshsortd_fabric_shards_served_total counter\n")
	fmt.Fprintf(w, "meshsortd_fabric_shards_served_total{status=\"ok\"} %d\n", m.fabricShardsServed.Load())
	fmt.Fprintf(w, "meshsortd_fabric_shards_served_total{status=\"cached\"} %d\n", m.fabricShardsCached.Load())
	fmt.Fprintf(w, "meshsortd_fabric_shards_served_total{status=\"error\"} %d\n", m.fabricShardsFailed.Load())

	if s.fabricStats != nil {
		fmt.Fprintf(w, "# HELP meshsortd_fabric_runs_total Coordinator runs, by execution mode.\n")
		fmt.Fprintf(w, "# TYPE meshsortd_fabric_runs_total counter\n")
		fmt.Fprintf(w, "meshsortd_fabric_runs_total{mode=\"distributed\"} %d\n",
			s.fabricStats.Runs-s.fabricStats.RunsLocal)
		fmt.Fprintf(w, "meshsortd_fabric_runs_total{mode=\"local\"} %d\n", s.fabricStats.RunsLocal)
		fmt.Fprintf(w, "# HELP meshsortd_fabric_shards_total Coordinator shards, by where they completed, plus requeued dispatch failures.\n")
		fmt.Fprintf(w, "# TYPE meshsortd_fabric_shards_total counter\n")
		fmt.Fprintf(w, "meshsortd_fabric_shards_total{status=\"remote\"} %d\n", s.fabricStats.ShardsRemote)
		fmt.Fprintf(w, "meshsortd_fabric_shards_total{status=\"local-fallback\"} %d\n", s.fabricStats.ShardsLocal)
		fmt.Fprintf(w, "meshsortd_fabric_shards_total{status=\"retried\"} %d\n", s.fabricStats.Retries)
		fmt.Fprintf(w, "# HELP meshsortd_fabric_peer_up Peer health as seen by the coordinator (1 = dispatchable).\n")
		fmt.Fprintf(w, "# TYPE meshsortd_fabric_peer_up gauge\n")
		for _, p := range s.fabricPeers {
			up := 0
			if p.Up {
				up = 1
			}
			fmt.Fprintf(w, "meshsortd_fabric_peer_up{peer=%q} %d\n", p.Addr, up)
		}
		fmt.Fprintf(w, "# HELP meshsortd_fabric_peer_shards_total Shards per peer, by outcome (failed dispatches were requeued elsewhere).\n")
		fmt.Fprintf(w, "# TYPE meshsortd_fabric_peer_shards_total counter\n")
		for _, p := range s.fabricPeers {
			fmt.Fprintf(w, "meshsortd_fabric_peer_shards_total{peer=%q,outcome=\"served\"} %d\n", p.Addr, p.Served)
			fmt.Fprintf(w, "meshsortd_fabric_peer_shards_total{peer=%q,outcome=\"failed\"} %d\n", p.Addr, p.Failed)
		}
		fmt.Fprintf(w, "# HELP meshsortd_fabric_peer_latency_ns Round-trip of each peer's most recent completed shard.\n")
		fmt.Fprintf(w, "# TYPE meshsortd_fabric_peer_latency_ns gauge\n")
		for _, p := range s.fabricPeers {
			fmt.Fprintf(w, "meshsortd_fabric_peer_latency_ns{peer=%q} %d\n", p.Addr, p.LastLatencyNs)
		}
	}

	fmt.Fprintf(w, "# HELP meshsortd_job_trial_ns Nanoseconds per trial of completed jobs.\n")
	fmt.Fprintf(w, "# TYPE meshsortd_job_trial_ns histogram\n")
	cum := int64(0)
	for i, le := range trialNsBuckets {
		cum += m.trialNs.counts[i].Load()
		fmt.Fprintf(w, "meshsortd_job_trial_ns_bucket{le=\"%d\"} %d\n", le, cum)
	}
	cum += m.trialNs.counts[len(trialNsBuckets)].Load()
	fmt.Fprintf(w, "meshsortd_job_trial_ns_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "meshsortd_job_trial_ns_sum %d\n", m.trialNs.sum.Load())
	fmt.Fprintf(w, "meshsortd_job_trial_ns_count %d\n", m.trialNs.n.Load())
}
