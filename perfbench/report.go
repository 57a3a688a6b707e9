package main

import (
	"fmt"
	"math"
)

// metricDef is one metric the benchmark reports: its name and unit as
// BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports from an
// untraced run. The op_* metrics measure the workload's unit of work:
// a probe admission (admit-churn), one /v1/analyze or /v1/simulate
// request (analyze-mix), or one oracle check (corpus-sweep).
// setup_s, and analyze-mix's latency and rate, are given at the
// reference host speed (hostspeed.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced run reports. A
// layer the workload does not pass through reports 0. corpus-sweep
// puts its per-check breakdown in the run record instead.
var perLayer = []metricDef{
	{"transport.self_p50_ms", "ms"},
	{"cluster.admit_self_p50_ms", "ms"},
	{"cluster.admits_per_batch", "req/batch"},
	{"server.admit_self_p50_ms", "ms"},
	{"server.admits_per_batch", "req/batch"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.hit_self_p50_ms", "ms"},
	{"server.miss_self_p50_ms", "ms"},
	{"server.rejected_ratio", "ratio"},
	{"analysis.warm_eval_p50_ms", "ms"},
	{"analysis.cold_eval_p50_ms", "ms"},
	{"analysis.tasks_reused_ratio", "ratio"},
	{"analysis.warm_start_ratio", "ratio"},
	{"analysis.rta_p50_ms", "ms"},
	{"scenario.build_p50_ms", "ms"},
	{"exec.sim_p50_ms", "ms"},
	{"sim.ns_per_event", "ns"},
	{"sim.events_per_check", "events"},
	{"corpus.generate_ms_per_check", "ms"},
	{"corpus.generate_error_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// maxProblems caps the failed-check messages a report keeps.
const maxProblems = 20

// report collects what one pass of a workload measured and checked.
type report struct {
	minBeyond int
	values    map[string]float64
	// detail holds named breakdowns for the run record (per-operation
	// percentiles, digests, sample counts); never part of the result.
	detail    map[string]any
	attempted int64
	failed    int64
	problems  []string
	nproblems int
	// short lists percentiles that had too few samples beyond them.
	short []string
	// base holds the untraced pass's values during a traced pass.
	base map[string]float64
}

func newReport(minBeyond int) *report {
	return &report{minBeyond: minBeyond, values: map[string]float64{}, detail: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// problem records a failed output check.
func (r *report) problem(format string, args ...any) {
	r.nproblems++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// pct computes the p-th percentile of xs (ms, failures as +Inf) for a
// reported metric and files it, with its sample count, in the run
// record under name. A percentile with fewer than minBeyond samples
// beyond it is marked short, which invalidates the run.
func (r *report) pct(name string, xs []float64, p float64) float64 {
	v, beyond, ok := percentile(xs, p, r.minBeyond)
	if !ok {
		r.short = append(r.short, fmt.Sprintf("%s: %d samples, %d beyond", name, len(xs), beyond))
	}
	return r.note(name, v, len(xs))
}

// notePct files a percentile in the run record only, where the sample
// rule does not apply; the sample count says how far to trust it.
func (r *report) notePct(name string, xs []float64, p float64) {
	v, _, _ := percentile(xs, p, 0)
	r.note(name, v, len(xs))
}

func (r *report) note(name string, v float64, samples int) float64 {
	if math.IsInf(v, 1) {
		// A percentile that lands on a failed operation has no finite
		// latency; report the largest float so it misses every bound.
		v = math.MaxFloat64
	}
	r.detail[name] = v
	r.detail[name+".samples"] = samples
	return v
}
