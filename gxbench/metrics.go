package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric describes one metric the benchmark reports. The registry below
// is the single list BENCHMARK.json mirrors (a test holds the two equal).
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end metrics only) is the share of the parent's
	// median by which the metric may worsen before a change counts as a
	// regression.
	Bound float64
	// Layer marks a per-layer metric: reported by the traced run only.
	Layer bool
	// Det marks a counter that must repeat exactly between runs of one
	// workload and seed; a moving value is a determinism bug, not noise.
	Det bool
	// Moves names, for a per-layer metric, the end-to-end metric and the
	// workload it is expected to move.
	Moves string
}

// The workload names.
const (
	wTable2  = "table2-8k"
	wHeat    = "heat-prog-128k"
	wService = "service-mix"
)

var registry = []metric{
	// End to end, from untraced runs, on every workload.
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "vp_simsec_per_s", Unit: "vp-s/s", Better: "higher", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "submit_result_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "submit_result_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},

	// core: the discrete-event engine.
	{Name: "core.new_s", Unit: "s", Better: "lower", Layer: true, Moves: "setup_s on table2-8k and heat-prog-128k"},
	{Name: "core.run_s", Unit: "s", Better: "lower", Layer: true, Moves: "wall_s on table2-8k and heat-prog-128k"},
	{Name: "core.events", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on table2-8k and heat-prog-128k"},
	{Name: "core.resumes", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on table2-8k"},
	{Name: "core.program_steps", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on heat-prog-128k"},
	{Name: "core.events_per_s", Unit: "1/s", Better: "higher", Layer: true, Moves: "wall_s on table2-8k"},
	{Name: "core.event_pool_hit_ratio", Unit: "ratio", Better: "higher", Layer: true, Moves: "peak_rss_mib on table2-8k and heat-prog-128k"},
	{Name: "core.carriers_high_water", Unit: "count", Better: "lower", Layer: true, Moves: "peak_rss_mib on table2-8k"},
	{Name: "core.window_rounds", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on heat-prog-128k (0 on table2-8k: no change predicted)"},
	{Name: "core.window_width_mean_us", Unit: "us", Better: "higher", Layer: true, Moves: "wall_s on heat-prog-128k (0 on table2-8k: no change predicted)"},
	{Name: "core.cross_events", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on heat-prog-128k (0 on table2-8k: no change predicted)"},
	{Name: "core.workers2_speedup", Unit: "ratio", Better: "higher", Layer: true, Moves: "wall_s on heat-prog-128k"},

	// mpi: the simulated MPI data plane.
	{Name: "mpi.eager_msgs", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on heat-prog-128k"},
	{Name: "mpi.rendezvous_msgs", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on heat-prog-128k"},
	{Name: "mpi.collective_ops", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on table2-8k"},
	{Name: "mpi.unexpected_max", Unit: "count", Better: "lower", Layer: true, Moves: "peak_rss_mib on heat-prog-128k"},
	{Name: "mpi.pool_hit_ratio", Unit: "ratio", Better: "higher", Layer: true, Moves: "wall_s and peak_rss_mib on heat-prog-128k"},
	{Name: "mpi.buf_hit_ratio", Unit: "ratio", Better: "higher", Layer: true, Moves: "wall_s and peak_rss_mib on heat-prog-128k"},
	{Name: "mpi.buf_high_water_bytes", Unit: "bytes", Better: "lower", Layer: true, Moves: "peak_rss_mib on heat-prog-128k"},

	// fault/restart (root Campaign) and checkpoint+fsmodel.
	{Name: "restart.runs", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on table2-8k"},
	{Name: "restart.failures", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on table2-8k"},
	{Name: "checkpoint.files", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on heat-prog-128k (tiered writes)"},
	{Name: "checkpoint.bytes_stored", Unit: "bytes", Better: "lower", Layer: true, Det: true, Moves: "peak_rss_mib on heat-prog-128k"},

	// runner: the campaign pool.
	{Name: "runner.runs", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "wall_s on table2-8k"},
	{Name: "runner.run_wall_s", Unit: "s", Better: "lower", Layer: true, Moves: "wall_s on table2-8k"},
	{Name: "runner.queue_wait_s", Unit: "s", Better: "lower", Layer: true, Moves: "submit_result_p90_ms on table2-8k"},
	{Name: "runner.pool_speedup", Unit: "ratio", Better: "higher", Layer: true, Moves: "wall_s on table2-8k"},
	{Name: "runner.retries", Unit: "count", Better: "lower", Layer: true, Moves: "wall_s on table2-8k"},

	// softerror: Table I's bit-flip campaigns.
	{Name: "softerror.injections", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "jobs_per_s on service-mix"},

	// wire: spec decoding and canonical encoding.
	{Name: "wire.decode_us", Unit: "us", Better: "lower", Layer: true, Moves: "submit_result_p50_ms on service-mix, through the cache-hit path"},
	{Name: "wire.canonical_us", Unit: "us", Better: "lower", Layer: true, Moves: "submit_result_p50_ms on service-mix, through the cache-hit path"},
	{Name: "wire.cache_key_us", Unit: "us", Better: "lower", Layer: true, Moves: "submit_result_p50_ms on service-mix, through the cache-hit path"},

	// service and jobstore.
	{Name: "service.hit_p50_ms", Unit: "ms", Better: "lower", Layer: true, Moves: "submit_result_p50_ms on service-mix"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: true, Moves: "submit_result_p50_ms and jobs_per_s on service-mix"},
	{Name: "service.dedup_joins", Unit: "count", Better: "higher", Layer: true, Moves: "jobs_per_s on service-mix"},
	{Name: "service.sim_runs", Unit: "count", Better: "lower", Layer: true, Det: true, Moves: "jobs_per_s on service-mix"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower", Layer: true, Moves: "submit_result_p90_ms on service-mix"},
	{Name: "jobstore.get_us", Unit: "us", Better: "lower", Layer: true, Moves: "submit_result_p50_ms on service-mix, through the cache-hit path"},
	{Name: "jobstore.put_us", Unit: "us", Better: "lower", Layer: true, Moves: "jobs_per_s on service-mix"},

	// Go runtime and the tracing itself.
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Layer: true, Moves: "wall_s on table2-8k"},
	{Name: "trace.overhead_s", Unit: "s", Better: "lower", Layer: true, Moves: "nothing: traced minus untraced wall_s"},
}

// metricsOf returns the registry's end-to-end (layer=false) or per-layer
// metrics.
func metricsOf(layer bool) []metric {
	var out []metric
	for _, m := range registry {
		if m.Layer == layer {
			out = append(out, m)
		}
	}
	return out
}

// lookup returns the registry entry for name.
func lookup(name string) (metric, bool) {
	for _, m := range registry {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// values holds one run's measured metrics by name.
type values map[string]float64

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs must be non-empty.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0 (a counter pair that did not
// occur on this workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencies collects per-call durations.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, d.Seconds()) }

// p50 returns the median in the given unit (1e3 for ms, 1e6 for µs), or 0
// with no samples.
func (l latencies) p50(scale float64) float64 {
	if len(l) == 0 {
		return 0
	}
	return median(l) * scale
}

// describe renders one metric value with its unit for the report.
func describe(name string, v float64) string {
	m, _ := lookup(name)
	return fmt.Sprintf("%-28s %14.6g %s", name, v, m.Unit)
}
