package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/perf"
)

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares (metrics_test.go keeps them equal).
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"cpu_vs_ref", "ratio"},
	{"gflops_vs_ref", "ratio"},
}

var perLayer = []metricDef{
	{"negf.sigma_s", "s"},
	{"negf.sigma_calls", "count"},
	{"negf.sigma_hit_ratio", "ratio"},
	{"wavefunction.solve_s", "s"},
	{"wavefunction.gflops", "GFlop/s"},
	{"linalg.flops_per_point", "count"},
	{"sparse.panel_reuse_ratio", "ratio"},
	{"sched.busy_frac", "ratio"},
	{"sched.speedup_1w", "ratio"},
	{"tb.assemble_s", "s"},
	{"core.bias_self_s", "s"},
	{"core.scf_iters", "count"},
	{"poisson.solve_s", "s"},
	{"transport.energy_s", "s"},
	{"runtime.alloc_mb_per_point", "MB"},
	{"runtime.gc_frac", "ratio"},
	{"runtime.max_rss_mb", "MB"},
	{"cluster.journal_appends", "count"},
	{"cluster.journal_append_s", "s"},
	{"cluster.journal_append_p50_us", "us"},
	{"cluster.journal_append_p99_us", "us"},
	{"comms.frames_per_task", "count"},
	{"comms.bytes_per_task", "bytes"},
	{"distrib.grants_per_task", "count"},
	{"distrib.worker_busy_frac", "ratio"},
	{"distrib.lease_wait_s", "s"},
	{"distrib.commit_lag_p50_ms", "ms"},
	{"distrib.commit_lag_p90_ms", "ms"},
	{"distrib.redispatched", "count"},
	{"server.job_p50_ms", "ms"},
	{"server.job_p90_ms", "ms"},
	{"server.submit_p50_ms", "ms"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.first_point_p50_ms", "ms"},
	{"server.run_p50_ms", "ms"},
	{"server.result_p50_ms", "ms"},
	{"server.replay_p50_ms", "ms"},
	{"server.refused", "count"},
	{"perf.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"cluster.model_rate_ratio", "ratio"},
}

// layerMetrics maps per-layer metric names to values.
type layerMetrics map[string]float64

// counterLayers fills the metrics every workload reads from the
// program's own counters over one traced pass (delta d) and from the Go
// runtime (before/after samples): σ-cache traffic, program-recorded σ
// and solver time, panel reuse, allocation and GC share. points is the
// pass's energy-point count.
func (lm layerMetrics) counterLayers(d perf.Snapshot, rt0, rt1 runtimeSample, points int64) {
	c := d.Counters
	lookups := c["sigma-hits"] + c["sigma-misses"] + c["sigma-coalesced"]
	lm["negf.sigma_calls"] = float64(lookups)
	if lookups > 0 {
		lm["negf.sigma_hit_ratio"] = float64(c["sigma-hits"]+c["sigma-coalesced"]) / float64(lookups)
	}
	lm["negf.sigma_s"] = d.Phases["self-energy"].Wall.Seconds()
	if loads := c["panel-loads"]; loads > 0 {
		lm["sparse.panel_reuse_ratio"] = float64(c["panel-reuses"]) / float64(loads)
	}
	if points > 0 {
		lm["runtime.alloc_mb_per_point"] = float64(rt1.allocBytes-rt0.allocBytes) / float64(points) / (1 << 20)
		lm["linalg.flops_per_point"] = float64(d.Flops) / float64(points)
	}
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		lm["runtime.gc_frac"] = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
}

// modelRatio is the measured GFlop/s per core over the calibrated
// machine model's sustained per-core rate (cluster.Jaguar).
func modelRatio(flops int64, wall time.Duration, cores int) float64 {
	perCore := float64(flops) / wall.Seconds() / float64(cores)
	return perCore / cluster.Jaguar().SustainedFlopsPerCore()
}

// msQuantile is the q-quantile of the durations, in milliseconds.
func msQuantile(ds []time.Duration, q float64) float64 {
	return quantile(toSeconds(ds), q) * 1e3
}
