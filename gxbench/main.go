// Command gxbench is gxsim's benchmark. One invocation runs one workload
// from a single process, checks its outputs, and prints every metric by
// name with its unit; the last line of standard output is the JSON result
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run measures one untraced repetition, then one
// traced repetition that records spans around every call into a layer,
// and reports the per-layer metrics plus the tracing overhead. The spans,
// the host record and the metrics are also written under --out.
//
// Run it through run.sh, which builds it from source:
//
//	bash gxbench/run.sh --workload table2-8k --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"xsim/internal/runner"
)

// Each run sets its workload up at least minSetups times, and keeps
// setting it up (and tearing it down) until setupBudget is spent or it
// has maxSetups samples; setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = time.Second
)

// defaultSeed is the --seed default and table2-8k's failure-draw seed.
const defaultSeed = 1

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// setup builds the system one repetition drives; it is timed for
	// setup_s.
	setup func(seed int64) (system, error)
}

// system is one set-up instance of a workload, good for one repetition.
type system interface {
	// rep runs the workload once, verifying its outputs. tr is nil in
	// untraced repetitions.
	rep(tr *tracer) repResult
	close()
}

// repResult is what one repetition measured.
type repResult struct {
	wall     time.Duration // first call into the system → verified result
	ops      int           // operations attempted (simulation runs or HTTP submissions)
	failed   int           // operations that failed or produced a wrong output
	vpSimSec float64       // ranks × simulated seconds advanced, summed over runs
	lat      latencies     // per-operation submit→result latencies
	layers   values        // per-layer metrics (deterministic ones are checked)
	problems []string      // correctness failures, for the report
	hits     latencies     // cache-hit submit→result latencies (service-mix)
	peakRSS  float64       // resident peak during the repetition, MiB
}

var workloads = []workload{
	{name: wTable2, why: "the paper's Table II grid at 8,192 ranks: closure VP handoff, linear collectives, failure/abort/restart with checkpoint reads and the campaign pool; no windows, no service", setup: setupTable2},
	{name: wHeat, why: "the scale run: one 131,072-rank program-mode heat world at Workers=2 with halo exchanges and tiered checkpoint writes; no VP handoff, no pool fan-out, no service", setup: setupHeat},
	{name: wService, why: "campaign service over loopback HTTP, 2 closed-loop clients, 400 small specs of all six kinds, 4 in 5 respelled: wire, queue, dedup, cache and jobstore", setup: setupService},
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measure for at least this many seconds (at least one repetition)")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced repetition")
	out := flag.String("out", ".bench_build/gxbench", "directory for records, spans and the determinism log")
	updateGolden := flag.Bool("update-golden", false, "record this run's outputs as the golden outputs")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *traceFlag < 0 || *traceFlag > 1 || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "gxbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	goldenMode = *updateGolden
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "gxbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gxbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gxbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload and assembles the result.
func run(w *workload, seed int64, budget time.Duration, traced bool, out string) (*result, error) {
	h := describeHost(w.name, seed, traced)
	hostLine, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hostLine)

	// Repetition k draws its inputs from the k-th seed derived from the
	// workload seed: a run averages over several input orders, and the
	// same seed still gives the same inputs.
	var reps []repResult
	var setups []float64
	doRep := func(tr *tracer) (repResult, error) {
		repSeed := runner.DeriveSeed(seed, len(reps))
		// Return the previous repetition's memory to the system: its
		// garbage is neither set-up cost nor part of this repetition's
		// resident peak.
		debug.FreeOSMemory()
		resetPeakRSS()
		sp := tr.begin("setup", "setup", w.name+" set-up", nil)
		t0 := time.Now()
		sys, err := w.setup(repSeed)
		if err != nil {
			return repResult{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(sp)
		defer sys.close()
		gc := readGC()
		r := sys.rep(tr)
		r.layers["runtime.gc_cpu_frac"] = readGC().fracSince(gc)
		r.peakRSS = peakRSSMiB()
		return r, nil
	}

	// Untraced repetitions until the budget is spent (one in a traced
	// run: it is the baseline the tracing overhead is measured against).
	start := time.Now()
	for len(reps) == 0 || (!traced && time.Since(start) < budget) {
		r, err := doRep(nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		r, err := doRep(tr)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	debug.FreeOSMemory()
	for spent := 0.0; len(setups) < maxSetups && (len(setups) < minSetups || spent < setupBudget.Seconds()); {
		t0 := time.Now()
		sys, err := w.setup(runner.DeriveSeed(seed, 0))
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		spent += d
		sys.close()
	}

	res := &result{Correct: true, Metrics: make(map[string]metricValue)}
	var problems []string
	for _, r := range reps {
		res.Attempted += r.ops
		res.Failed += r.failed
		problems = append(problems, r.problems...)
	}
	problems = append(problems, checkDeterminism(w.name, seed, h.Source, reps, out)...)

	untraced := reps
	if traced {
		untraced = reps[:len(reps)-1]
	}
	e2e := endToEnd(untraced, setups)
	var report values
	if traced {
		last := reps[len(reps)-1]
		report = last.layers
		report["trace.overhead_s"] = last.wall.Seconds() - e2e["wall_s"]
		report["service.hit_p50_ms"] = last.hits.p50(1e3)
		for _, m := range metricsOf(true) {
			res.Metrics[m.Name] = metricValue{report[m.Name], m.Unit}
		}
		if err := tr.write(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))); err != nil {
			return nil, err
		}
	} else {
		report = e2e
		for _, m := range metricsOf(false) {
			res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
		}
	}
	printReport(w, reps, untraced, setups, report)
	if traced {
		printSelfTimes(tr)
	}

	if len(problems) > 0 || res.Failed > 0 {
		res.Correct = false
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "gxbench: check failed: %s\n", p)
		}
	}
	// The record keeps what the result line has no room for: the host,
	// sample counts, the spread of the set-up and repetition times, the
	// cache-hit median, and what each per-layer metric should move.
	record := struct {
		Host     host                  `json:"host"`
		Result   *result               `json:"result"`
		Samples  map[string]int        `json:"samples"`
		Extra    values                `json:"extra"`
		Moves    map[string]string     `json:"moves,omitempty"`
		Range    map[string][2]float64 `json:"layer_range,omitempty"`
		Problems []string              `json:"problems,omitempty"`
	}{Host: h, Result: res, Samples: sampleCounts(untraced, setups), Problems: problems}
	var walls []float64
	for _, r := range untraced {
		walls = append(walls, r.wall.Seconds())
	}
	record.Extra = values{
		"setup_p10_s": quantile(setups, 0.1),
		"setup_p90_s": quantile(setups, 0.9),
		"wall_min_s":  quantile(walls, 0),
		"wall_max_s":  quantile(walls, 1),
		"hit_p50_ms":  pooledHits(untraced).p50(1e3),
	}
	if traced {
		// Timing-dependent per-layer values (dedup joins, hit ratios,
		// times) are given with their range over the run's repetitions.
		record.Moves = make(map[string]string)
		record.Range = make(map[string][2]float64)
		for _, m := range metricsOf(true) {
			record.Moves[m.Name] = m.Moves
			var xs []float64
			for _, r := range reps {
				if v, ok := r.layers[m.Name]; ok {
					xs = append(xs, v)
				}
			}
			if !m.Det && len(xs) > 1 {
				record.Range[m.Name] = [2]float64{quantile(xs, 0), quantile(xs, 1)}
			}
		}
	}
	data, _ := json.MarshalIndent(record, "", " ")
	recPath := filepath.Join(out, fmt.Sprintf("record-%s-seed%d-trace%d.json", w.name, seed, boolInt(traced)))
	if err := os.WriteFile(recPath, data, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd reduces the untraced repetitions to the end-to-end metrics.
func endToEnd(reps []repResult, setups []float64) values {
	var walls, peaks []float64
	var wallSum, vpSim float64
	var ops int
	var lat latencies
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		peaks = append(peaks, r.peakRSS)
		wallSum += r.wall.Seconds()
		vpSim += r.vpSimSec
		ops += r.ops - r.failed
		lat = append(lat, r.lat...)
	}
	v := values{
		"wall_s":          median(walls),
		"setup_s":         median(setups),
		"peak_rss_mib":    median(peaks),
		"vp_simsec_per_s": vpSim / wallSum,
		"jobs_per_s":      float64(ops) / wallSum,
	}
	if len(lat) > 0 {
		v["submit_result_p50_ms"] = quantile(lat, 0.5) * 1e3
		v["submit_result_p90_ms"] = quantile(lat, 0.9) * 1e3
	}
	return v
}

func pooledHits(reps []repResult) latencies {
	var hits latencies
	for _, r := range reps {
		hits = append(hits, r.hits...)
	}
	return hits
}

// sampleCounts states how many samples each reduced metric rests on.
func sampleCounts(reps []repResult, setups []float64) map[string]int {
	n := map[string]int{"repetitions": len(reps), "setup_s": len(setups)}
	for _, r := range reps {
		n["submit_result_ms"] += len(r.lat)
		n["hit_ms"] += len(r.hits)
	}
	return n
}

// printReport writes the human-readable report (everything before the
// result line), including sample counts.
func printReport(w *workload, reps, untraced []repResult, setups []float64, vals values) {
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	for i, r := range reps {
		fmt.Printf("  repetition %d: wall %.3f s, peak RSS %.0f MiB, %d operations, %d failed\n", i+1, r.wall.Seconds(), r.peakRSS, r.ops, r.failed)
	}
	n := sampleCounts(untraced, setups)
	fmt.Printf("  samples: %d repetitions, %d set-ups, %d submit→result latencies, %d cache-hit latencies\n",
		n["repetitions"], n["setup_s"], n["submit_result_ms"], n["hit_ms"])
	if hits := pooledHits(untraced); len(hits) > 0 {
		fmt.Printf("  hit_p50_ms %.4f over %d cache-hit submissions\n", hits.p50(1e3), len(hits))
	}
	var names []string
	for name := range vals {
		if _, ok := lookup(name); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Println("  " + describe(name, vals[name]))
	}
}

func printSelfTimes(tr *tracer) {
	self := tr.selfTimes()
	var layers []string
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Println("  self time by layer (traced repetition):")
	for _, l := range layers {
		fmt.Printf("    %-12s %10.4f s\n", l, self[l])
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- host and process measurements ----------------------------------------

// host identifies where and on what a result was measured, so results
// from different hosts or sources are never compared silently.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
}

func describeHost(workload string, seed int64, traced bool) host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     buildRevision(),
		Source:     sourceDigest("."),
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// resetPeakRSS restarts the kernel's peak-resident-set (VmHWM) count at
// the current resident set, so each repetition's peak is its own. Where
// the kernel does not offer it the peak stays the process's.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // error: keep the process peak
}

// peakRSSMiB returns the peak resident set (VmHWM) since the last reset,
// falling back to the Go runtime's total obtained memory where /proc is
// missing.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// gcSample is a reading of the runtime's cumulative CPU accounting.
type gcSample struct{ gc, total, idle float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	get := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return gcSample{get(0), get(1), get(2)}
}

// fracSince returns the share of busy (non-idle) CPU time spent in the
// garbage collector since prev.
func (s gcSample) fracSince(prev gcSample) float64 {
	return ratio(s.gc-prev.gc, (s.total-prev.total)-(s.idle-prev.idle))
}
