package xsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"xsim/internal/checkpoint"
	"xsim/internal/daly"
	"xsim/internal/fault"
	"xsim/internal/fsmodel"
	"xsim/internal/runner"
	"xsim/internal/softerror"
	"xsim/internal/stats"
	"xsim/internal/vclock"
)

// PaperCallOverhead is the calibrated per-MPI-call CPU cost used by the
// paper-shaped experiments: about 2.9 µs of native MPI software overhead
// per call, scaled by the paper's 1000× node slowdown. It makes the
// 32,768-rank linear collectives dominate the per-checkpoint-cycle cost,
// which is what spreads the paper's E1 column as the checkpoint interval
// shrinks.
const PaperCallOverhead = Duration(2900 * Microsecond)

// --- Table I: fault (bit flip) injection ---------------------------------

// TableIConfig parameterises the Table I reproduction (the Finject bit
// flip campaign the paper reports). Only the RunSpec's Seed, Logf, and
// Pool apply: the victims are process-image models, not simulations.
type TableIConfig struct {
	RunSpec
	// Victims is the number of victim application instances (paper: 100).
	Victims int
	// MaxInjections is the per-victim cap (paper: an arbitrary 100).
	MaxInjections int
}

// TableIResult is the campaign result, re-exported.
type TableIResult = softerror.CampaignResult

// defaults fills the paper's Table I parameters.
func (cfg *TableIConfig) defaults() {
	if cfg.Victims == 0 {
		cfg.Victims = 100
	}
	if cfg.MaxInjections == 0 {
		cfg.MaxInjections = 100
	}
}

// RunTableI reproduces Table I; it is RunTableIContext without
// cancellation.
func RunTableI(cfg TableIConfig) (*TableIResult, error) {
	return RunTableIContext(context.Background(), cfg)
}

// RunTableIContext reproduces Table I: bit flips are injected into victim
// process images until the victims fail, and the injections-to-failure
// distribution is summarised. Victims fan out across the campaign pool;
// each victim's random sequence depends only on Seed and its index, so
// the distribution is identical at any pool size.
func RunTableIContext(ctx context.Context, cfg TableIConfig) (*TableIResult, error) {
	cfg.defaults()
	return softerror.RunCampaignContext(ctx, softerror.CampaignConfig{
		Victims:       cfg.Victims,
		MaxInjections: cfg.MaxInjections,
		Seed:          cfg.Seed,
		Pool:          cfg.Pool,
		Logf:          cfg.Logf,
		OnProgress:    cfg.runnerOnProgress(),
	})
}

// --- Table II: varying the checkpoint interval and system MTTF -----------

// TableIIConfig parameterises the Table II reproduction.
type TableIIConfig struct {
	// RunSpec carries the shared simulation parameters (Ranks defaults to
	// the paper's 32,768) and the campaign-pool controls.
	RunSpec
	// Iterations is the total iteration count (paper: 1,000; always
	// fixed per the paper).
	Iterations int
	// Intervals are the checkpoint (and halo-exchange) intervals to
	// sweep (paper: 500, 250, 125 — 50 %, 25 %, 12.5 % of the total
	// iteration count). The no-failure baseline with a single final
	// checkpoint is always included.
	Intervals []int
	// MTTFs are the system mean-time-to-failure values to sweep
	// (paper: 6,000 s and 3,000 s).
	MTTFs []Duration
	// FSModel is the file-system cost model. The paper's Table II
	// excludes checkpoint I/O overhead (its file system model was a work
	// in progress), so the zero value charges nothing; the checkpoint-I/O
	// ablation sets PaperPFS().
	FSModel fsmodel.Model
	// MaxRuns caps failure/restart cycles per cell.
	MaxRuns int
}

// TableIIRow is one row of Table II.
type TableIIRow struct {
	// MTTFs is the system MTTF (0 for the no-failure baseline rows).
	MTTFs Duration
	// C is the checkpoint interval in iterations.
	C int
	// E1 is the simulated execution time without failures.
	E1 Time
	// E2 is the simulated execution time with failures and restarts
	// (0 for baseline rows).
	E2 Time
	// F is the number of injected failures experienced.
	F int
	// MTTFa is the experienced application mean-time-to-failure,
	// E2/(F+1).
	MTTFa Duration
	// Runs is the number of application runs (1 + restarts).
	Runs int
}

// TableII is the Table II reproduction.
type TableII struct {
	Config TableIIConfig
	Rows   []TableIIRow
	// Stats pools the grid's execution accounting and simulation metrics
	// across every E1 run and campaign cell.
	Stats CampaignStats
}

// paperTableIIDefaults fills the paper's parameters.
func (cfg *TableIIConfig) defaults() {
	cfg.RunSpec.defaults(32768)
	if cfg.Iterations == 0 {
		cfg.Iterations = 1000
	}
	if len(cfg.Intervals) == 0 {
		cfg.Intervals = []int{cfg.Iterations / 2, cfg.Iterations / 4, cfg.Iterations / 8}
	}
	if len(cfg.MTTFs) == 0 {
		cfg.MTTFs = []Duration{6000 * Second, 3000 * Second}
	}
}

// expCell is one fanned-out unit of an experiment grid: either a single
// no-failure run (res) or a failure/restart campaign (camp).
type expCell struct {
	res  *Result
	camp *CampaignResult
}

// setHeatApp installs the heat workload on a campaign: as program-mode
// state machines (closures only for the tests' reference runs).
func (s *RunSpec) setHeatApp(camp *Campaign, hc HeatConfig) {
	if s.closures {
		camp.AppFor = func(int) App { return RunHeat(hc) }
		return
	}
	camp.ProgFor = func(int) func(rank int) Prog { return RunHeatProg(hc) }
}

// runHeatE1 executes one no-failure heat run and returns its Result.
func (s *RunSpec) runHeatE1(ctx context.Context, simCfg Config, hc HeatConfig) (*Result, error) {
	sim, err := New(simCfg)
	if err != nil {
		return nil, err
	}
	var res *Result
	if s.closures {
		res, err = sim.RunContext(ctx, RunHeat(hc))
	} else {
		res, err = sim.RunProgsContext(ctx, RunHeatProg(hc))
	}
	if err != nil {
		return res, err
	}
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("xsim: E1 run with interval %d: %w", hc.CheckpointInterval, err)
	}
	return res, nil
}

// RunTableII reproduces Table II; it is RunTableIIContext without
// cancellation.
func RunTableII(cfg TableIIConfig) (*TableII, error) {
	return RunTableIIContext(context.Background(), cfg)
}

// RunTableIIContext reproduces Table II: the heat application runs at
// Ranks simulated MPI processes with the checkpoint interval and the
// system MTTF varied; each cell reports E1 (no failures), E2 (with
// failures and restarts), F, and MTTFa. The baseline, the per-interval E1
// runs, and every (MTTF, interval) campaign cell are independent and fan
// out across the campaign pool; each cell's failure draws depend only on
// Seed and its MTTF, so the table is identical at any pool size. On error
// (a failed cell, or cancellation) the partial table keeps its pooled
// Stats but no Rows.
func RunTableIIContext(ctx context.Context, cfg TableIIConfig) (*TableII, error) {
	cfg.defaults()
	base, err := HeatWorkloadFor(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	base.Iterations = cfg.Iterations

	simCfg := cfg.baseConfig()
	simCfg.FSModel = cfg.FSModel

	heatAt := func(interval int) HeatConfig {
		hc := base
		hc.ExchangeInterval = interval
		hc.CheckpointInterval = interval
		return hc
	}
	e1Task := func(index, interval int) runner.Task[expCell] {
		return runner.Task[expCell]{
			Spec: runner.Spec{Index: index, Label: fmt.Sprintf("E1 c=%d", interval)},
			Run: func(ctx context.Context) (expCell, error) {
				res, err := cfg.runHeatE1(ctx, simCfg, heatAt(interval))
				return expCell{res: res}, err
			},
		}
	}

	// Task order: baseline E1, per-interval E1s, then the campaign grid in
	// row order. Rows are assembled from this fixed order, never from
	// completion order.
	tasks := []runner.Task[expCell]{e1Task(0, cfg.Iterations)}
	for _, c := range cfg.Intervals {
		tasks = append(tasks, e1Task(len(tasks), c))
	}
	campStart := len(tasks)
	for _, mttf := range cfg.MTTFs {
		for _, c := range cfg.Intervals {
			hc := heatAt(c)
			// Mix the MTTF into the seed so different MTTF sweeps draw
			// independent failure sequences.
			seed := cfg.Seed + int64(mttf)
			tasks = append(tasks, runner.Task[expCell]{
				Spec: runner.Spec{
					Index: len(tasks),
					Label: fmt.Sprintf("mttf=%.0fs c=%d", mttf.Seconds(), c),
					Seed:  seed,
				},
				Run: func(ctx context.Context) (expCell, error) {
					camp := Campaign{
						Base:             simCfg,
						MTTF:             mttf,
						Seed:             seed,
						MaxRuns:          cfg.MaxRuns,
						CheckpointPrefix: "heat",
					}
					cfg.setHeatApp(&camp, hc)
					res, err := camp.RunContext(ctx)
					return expCell{camp: res}, err
				},
			})
		}
	}

	cells, rstats, err := runner.Run(ctx, cfg.runnerConfig(), tasks)
	table := &TableII{Config: cfg, Stats: CampaignStats{Runner: rstats}}
	for _, c := range cells {
		table.Stats.absorb(c.res)
		table.Stats.absorbCampaign(c.camp)
	}
	if err != nil {
		return table, err
	}

	table.Rows = append(table.Rows, TableIIRow{C: cfg.Iterations, E1: cells[0].res.SimTime, Runs: 1})
	e1ByC := make(map[int]Time, len(cfg.Intervals))
	for i, c := range cfg.Intervals {
		e1ByC[c] = cells[1+i].res.SimTime
	}
	i := campStart
	for _, mttf := range cfg.MTTFs {
		for _, c := range cfg.Intervals {
			res := cells[i].camp
			i++
			table.Rows = append(table.Rows, TableIIRow{
				MTTFs: mttf,
				C:     c,
				E1:    e1ByC[c],
				E2:    res.E2,
				F:     res.Failures,
				MTTFa: res.MTTFa(),
				Runs:  len(res.Runs),
			})
		}
	}
	return table, nil
}

// Render prints the table in the paper's layout.
func (t *TableII) Render() string {
	header := []string{"MTTF_s", "C", "E1", "E2", "F", "MTTF_a"}
	var rows [][]string
	secs := func(v vclock.Time) string {
		if v == 0 {
			return "—"
		}
		return fmt.Sprintf("%.0f s", v.Seconds())
	}
	for _, r := range t.Rows {
		mttf := "—"
		e2 := "—"
		f := "0"
		mttfa := "—"
		if r.MTTFs > 0 {
			mttf = fmt.Sprintf("%.0f s", r.MTTFs.Seconds())
			e2 = secs(r.E2)
			f = fmt.Sprintf("%d", r.F)
			mttfa = fmt.Sprintf("%.0f s", r.MTTFa.Seconds())
		}
		rows = append(rows, []string{mttf, fmt.Sprintf("%d", r.C), secs(r.E1), e2, f, mttfa})
	}
	return stats.Table(header, rows)
}

// --- §V-D First impressions: failure-mode classification -----------------

// FirstImpressionsConfig parameterises the failure-mode study: repeated
// single-failure runs of the heat application, classifying in which phase
// the failure struck, in which phase the survivors detected it (and
// aborted), and the state the checkpoint files were left in.
type FirstImpressionsConfig struct {
	// RunSpec carries the shared simulation parameters (Ranks defaults to
	// 512) and the campaign-pool controls.
	RunSpec
	// Iterations and Interval describe the workload.
	Iterations int
	Interval   int
	// Trials is the number of independent single-failure runs.
	Trials int
	// MTTF spreads the random failure times (default 6,000 s).
	MTTF Duration
}

// FirstImpressions aggregates the failure-mode study.
type FirstImpressions struct {
	Config FirstImpressionsConfig
	// Trials is the number of runs in which the failure activated.
	Trials int
	// FailedIn histograms the phase the failed rank was in.
	FailedIn map[string]int
	// DetectedIn histograms the phases the surviving ranks aborted in.
	DetectedIn map[string]int
	// CheckpointOutcomes histograms the post-abort checkpoint state:
	// "corrupted-file" (present but incomplete), "incomplete-set"
	// (files missing), "partially-deleted-old-set", "clean".
	CheckpointOutcomes map[string]int
	// Stats pools the study's execution accounting and simulation metrics.
	Stats CampaignStats
}

// defaults fills the zero fields.
func (cfg *FirstImpressionsConfig) defaults() {
	cfg.RunSpec.defaults(512)
	if cfg.Iterations == 0 {
		cfg.Iterations = 1000
	}
	if cfg.Interval == 0 {
		cfg.Interval = cfg.Iterations / 8
	}
	if cfg.Trials == 0 {
		cfg.Trials = 10
	}
	if cfg.MTTF == 0 {
		// Scale the MTTF to the run: one iteration is ≈5.25 simulated
		// seconds, and failures draw uniform within [0, 2×MTTF), so a
		// quarter of the expected execution time guarantees the failure
		// activates within the run.
		cfg.MTTF = Duration(cfg.Iterations) * Seconds(5.25) / 4
	}
}

// firstImpressionsTrial is one trial's classification.
type firstImpressionsTrial struct {
	activated  bool
	failedIn   string
	detectedIn map[string]int
	checkpoint string
	camp       *CampaignResult
}

// RunFirstImpressions reproduces the paper's §V-D observations; it is
// RunFirstImpressionsContext without cancellation.
func RunFirstImpressions(cfg FirstImpressionsConfig) (*FirstImpressions, error) {
	return RunFirstImpressionsContext(context.Background(), cfg)
}

// RunFirstImpressionsContext reproduces the paper's §V-D observations:
// because the computation phase dominates, failures usually strike during
// computation and are detected in the halo exchange; failures during the
// checkpoint phase are detected in the following barrier; aborts leave
// incomplete or corrupted checkpoints, or partially deleted old sets.
// Trials are independent (each owns a private store and tracker) and fan
// out across the campaign pool; histograms merge in trial order.
func RunFirstImpressionsContext(ctx context.Context, cfg FirstImpressionsConfig) (*FirstImpressions, error) {
	cfg.defaults()
	base, err := HeatWorkloadFor(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	base.Iterations = cfg.Iterations
	base.ExchangeInterval = cfg.Interval
	base.CheckpointInterval = cfg.Interval

	tasks := make([]runner.Task[firstImpressionsTrial], cfg.Trials)
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + int64(trial)*1000
		tasks[trial] = runner.Task[firstImpressionsTrial]{
			Spec: runner.Spec{Index: trial, Label: fmt.Sprintf("trial=%d", trial), Seed: seed},
			Run: func(ctx context.Context) (firstImpressionsTrial, error) {
				store := NewStore()
				tracker := NewHeatTracker(cfg.Ranks)
				hc := base
				hc.Tracker = tracker
				simCfg := cfg.baseConfig()
				simCfg.Store = store
				camp := Campaign{
					Base:    simCfg,
					MTTF:    cfg.MTTF,
					Seed:    seed,
					MaxRuns: 1, // observe the first failure only
				}
				cfg.setHeatApp(&camp, hc)
				res, err := camp.RunContext(ctx)
				out := firstImpressionsTrial{camp: res}
				// The single run usually aborts; that is the point. Only
				// cancellation is a real failure of the trial itself.
				if err != nil && errors.Is(err, ErrCancelled) {
					return out, err
				}
				if res == nil || len(res.Runs) == 0 {
					return out, nil
				}
				run := res.Runs[0]
				if run.Failed == 0 {
					// The drawn failure time was beyond the application's end.
					return out, nil
				}
				out.activated = true
				failedRank := run.Injected.Rank
				out.failedIn = tracker.PhaseOf(failedRank).String()
				out.detectedIn = make(map[string]int)
				for r := 0; r < cfg.Ranks; r++ {
					if r == failedRank {
						continue
					}
					out.detectedIn[tracker.PhaseOf(r).String()]++
				}
				out.checkpoint = classifyCheckpoints(store, "heat", cfg.Ranks)
				return out, nil
			},
		}
	}

	trials, rstats, err := runner.Run(ctx, cfg.runnerConfig(), tasks)
	out := &FirstImpressions{
		Config:             cfg,
		FailedIn:           make(map[string]int),
		DetectedIn:         make(map[string]int),
		CheckpointOutcomes: make(map[string]int),
		Stats:              CampaignStats{Runner: rstats},
	}
	for _, t := range trials {
		out.Stats.absorbCampaign(t.camp)
		if !t.activated {
			continue
		}
		out.Trials++
		out.FailedIn[t.failedIn]++
		for phase, n := range t.detectedIn {
			out.DetectedIn[phase] += n
		}
		out.CheckpointOutcomes[t.checkpoint]++
	}
	return out, err
}

// classifyCheckpoints inspects the post-abort checkpoint state.
func classifyCheckpoints(store *Store, prefix string, n int) string {
	iters := checkpoint.Iterations(store, prefix)
	if len(iters) == 0 {
		return "no-checkpoint"
	}
	corrupted := false
	incomplete := false
	for _, it := range iters {
		present := 0
		for r := 0; r < n; r++ {
			name := checkpoint.FileName(prefix, it, r)
			if !store.Exists(name) {
				continue
			}
			present++
			if !store.Complete(name) {
				corrupted = true
			}
		}
		if present < n {
			incomplete = true
		}
	}
	switch {
	case corrupted:
		return "corrupted-file"
	case incomplete && len(iters) > 1:
		return "partially-deleted-old-set"
	case incomplete:
		return "incomplete-set"
	default:
		return "clean"
	}
}

// Render prints the failure-mode study.
func (f *FirstImpressions) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "first impressions: %d trials with an activated failure\n\n", f.Trials)
	section := func(title string, m map[string]int) {
		fmt.Fprintf(&b, "%s:\n", title)
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(&b, "  %-28s %d\n", k, m[k])
		}
		b.WriteByte('\n')
	}
	section("failed rank was in phase", f.FailedIn)
	section("survivors aborted in phase (rank counts)", f.DetectedIn)
	section("checkpoint state after abort", f.CheckpointOutcomes)
	return b.String()
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// --- Replication/checkpoint crossover ------------------------------------

// Crossover arm names.
const (
	// ArmCheckpoint is the unreplicated checkpoint/restart arm at the
	// Daly-optimal interval.
	ArmCheckpoint = "ckpt"
	// ArmReplication is the r-way replication arm without checkpoints.
	ArmReplication = "repl"
	// ArmHybrid combines r-way replication with periodic checkpoints.
	ArmHybrid = "hybrid"
)

// ReplicationCrossoverConfig parameterises the replication-vs-checkpoint
// crossover study: the fixed-size replicated stencil runs under Poisson
// multi-failure injection at a sweep of system MTTFs, once per protection
// arm — plain checkpoint/restart at the Daly-optimal interval, plain
// r-way replication, and the hybrid of both — so the table exposes the
// MTTF below which burning r× the resources on replication beats
// restarting, the trade redMPI was built around.
type ReplicationCrossoverConfig struct {
	// RunSpec carries the shared simulation parameters. Ranks (default 24)
	// is the physical world size of every arm and must be divisible by
	// every replication degree: the replication arms split it into
	// Ranks/r logical ranks carrying r× the per-rank work.
	RunSpec
	// Degrees are the replication degrees to sweep (default 2, 3).
	Degrees []int
	// MTTFs are the system mean-time-to-failure values to sweep (default
	// 50 s … 1600 s, doubling).
	MTTFs []Duration
	// Iterations, ComputePerIteration, and HaloBytes shape the stencil
	// (defaults 40 iterations × 2.5 s, 1 KiB halos → a 100 s solve).
	Iterations          int
	ComputePerIteration Duration
	HaloBytes           int
	// CheckpointCost and RestartCost are Daly's δ and R (default 15 s
	// each).
	CheckpointCost Duration
	RestartCost    Duration
	// MaxRuns caps the failure/restart cycles per campaign cell (default
	// 400; low-MTTF checkpoint cells restart often).
	MaxRuns int
}

// defaults fills the zero fields.
func (cfg *ReplicationCrossoverConfig) defaults() {
	cfg.RunSpec.defaults(24)
	if len(cfg.Degrees) == 0 {
		cfg.Degrees = []int{2, 3}
	}
	if len(cfg.MTTFs) == 0 {
		cfg.MTTFs = []Duration{50 * Second, 100 * Second, 200 * Second,
			400 * Second, 800 * Second, 1600 * Second}
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 40
	}
	if cfg.ComputePerIteration == 0 {
		cfg.ComputePerIteration = Seconds(2.5)
	}
	if cfg.HaloBytes == 0 {
		cfg.HaloBytes = 1024
	}
	if cfg.CheckpointCost == 0 {
		cfg.CheckpointCost = 15 * Second
	}
	if cfg.RestartCost == 0 {
		cfg.RestartCost = 15 * Second
	}
	if cfg.MaxRuns == 0 {
		cfg.MaxRuns = 400
	}
}

// ReplicationCrossoverRow is one campaign cell of the crossover table.
type ReplicationCrossoverRow struct {
	// MTTF is the system mean time to failure of this cell.
	MTTF Duration
	// Arm is the protection strategy (ArmCheckpoint, ArmReplication,
	// ArmHybrid).
	Arm string
	// Degree is the replication degree (1 for the checkpoint arm).
	Degree int
	// Interval is the checkpoint interval in iterations (0 = none).
	Interval int
	// E2 is the simulated completion time including failures/restarts.
	E2 Time
	// F is the number of process failures experienced.
	F int
	// Runs is the number of application runs (1 + restarts).
	Runs int
	// Predicted is the analytic expectation: Daly's T(τ) for the
	// checkpoint arm, r×solve for failure-free replication, and
	// r×solve plus checkpoint overhead for the hybrid. Replication
	// predictions ignore restart cycles, so the simulated E2 exceeding
	// Predicted measures how often replicas were exhausted.
	Predicted Duration
}

// ReplicationCrossover is the crossover study result.
type ReplicationCrossover struct {
	Config ReplicationCrossoverConfig
	// Solve is the measured failure-free unreplicated solve time (the
	// study's E1 baseline).
	Solve Duration
	// Rows holds one entry per (MTTF, arm, degree) cell in sweep order.
	Rows []ReplicationCrossoverRow
	// Stats pools the grid's execution accounting and simulation metrics.
	Stats CampaignStats
}

// Row returns the cell for (mttf, arm, degree), or nil.
func (t *ReplicationCrossover) Row(mttf Duration, arm string, degree int) *ReplicationCrossoverRow {
	for i := range t.Rows {
		r := &t.Rows[i]
		if r.MTTF == mttf && r.Arm == arm && r.Degree == degree {
			return r
		}
	}
	return nil
}

// RunReplicationCrossover runs the crossover study; it is
// RunReplicationCrossoverContext without cancellation.
func RunReplicationCrossover(cfg ReplicationCrossoverConfig) (*ReplicationCrossover, error) {
	return RunReplicationCrossoverContext(context.Background(), cfg)
}

// RunReplicationCrossoverContext runs the crossover study. It first
// measures the failure-free unreplicated solve time, then fans one
// failure/restart campaign per (MTTF, arm, degree) cell across the
// campaign pool: every cell draws its own deterministic Poisson failure
// schedule (multiple failures per run — a single-failure model could
// never exhaust a replica group), restarts on abort with continuous
// virtual time, and counts a run as done once every logical rank has a
// surviving completed replica. Cell seeds depend only on Seed, the MTTF,
// and the arm, so the table is identical at any pool size.
func RunReplicationCrossoverContext(ctx context.Context, cfg ReplicationCrossoverConfig) (*ReplicationCrossover, error) {
	cfg.defaults()
	for _, r := range cfg.Degrees {
		if r < 2 {
			return nil, fmt.Errorf("xsim: replication degree %d must be at least 2", r)
		}
		if cfg.Ranks%r != 0 {
			return nil, fmt.Errorf("xsim: Ranks %d must be divisible by replication degree %d", cfg.Ranks, r)
		}
	}

	stencil := func(degree, interval int) ReplicatedStencilConfig {
		return ReplicatedStencilConfig{
			Degree:              degree,
			Iterations:          cfg.Iterations,
			ComputePerIteration: cfg.ComputePerIteration,
			HaloBytes:           cfg.HaloBytes,
			CheckpointInterval:  interval,
			CheckpointCost:      cfg.CheckpointCost,
			RestartCost:         cfg.RestartCost,
			Prefix:              "repl",
		}
	}

	table := &ReplicationCrossover{Config: cfg}

	// E1: the failure-free unreplicated solve, measured (not assumed) so
	// the Daly parameters include the simulated communication time.
	e1cfg := cfg.baseConfig()
	sim, err := New(e1cfg)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, RunReplicatedStencil(stencil(1, 0)))
	if err != nil {
		return table, err
	}
	table.Stats.absorb(res)
	if err := res.Err(); err != nil {
		return table, fmt.Errorf("xsim: crossover E1 run: %w", err)
	}
	solve := Duration(res.SimTime)
	table.Solve = solve
	perIter := solve / Duration(cfg.Iterations)

	// dalyInterval converts Daly's optimal compute-time interval into a
	// whole number of iterations of the (possibly replicated) stencil.
	dalyInterval := func(mttf Duration, degree int) (int, daly.Params) {
		dp := daly.Params{
			Solve:   Duration(degree) * solve,
			Delta:   cfg.CheckpointCost,
			Restart: cfg.RestartCost,
			MTTF:    mttf,
		}
		iters := int(math.Round(dp.OptimalInterval().Seconds() / (Duration(degree) * perIter).Seconds()))
		if iters < 1 {
			iters = 1
		}
		if iters > cfg.Iterations {
			iters = cfg.Iterations
		}
		return iters, dp
	}
	// ckptOverhead is the failure-free checkpoint cost at the given
	// interval: one δ per interior checkpoint.
	ckptOverhead := func(interval int) Duration {
		if interval <= 0 {
			return 0
		}
		return cfg.CheckpointCost * Duration((cfg.Iterations-1)/interval)
	}

	type cellSpec struct {
		row  ReplicationCrossoverRow
		seed int64
	}
	var specs []cellSpec
	addCell := func(mttf Duration, arm string, degree, interval int, predicted Duration) {
		specs = append(specs, cellSpec{
			row: ReplicationCrossoverRow{
				MTTF: mttf, Arm: arm, Degree: degree,
				Interval: interval, Predicted: predicted,
			},
			// Mix the MTTF and the arm index into the seed so every cell
			// draws an independent failure sequence.
			seed: cfg.Seed + int64(mttf.Seconds())*1009 + int64(len(specs))*37,
		})
	}
	for _, mttf := range cfg.MTTFs {
		interval, dp := dalyInterval(mttf, 1)
		addCell(mttf, ArmCheckpoint, 1, interval,
			dp.ExpectedRuntime(Duration(interval)*perIter))
		for _, degree := range cfg.Degrees {
			addCell(mttf, ArmReplication, degree, 0, Duration(degree)*solve)
			hInterval, _ := dalyInterval(mttf, degree)
			addCell(mttf, ArmHybrid, degree, hInterval,
				Duration(degree)*solve+ckptOverhead(hInterval))
		}
	}

	tasks := make([]runner.Task[expCell], len(specs))
	for i, spec := range specs {
		spec := spec
		sc := stencil(spec.row.Degree, spec.row.Interval)
		// The failure horizon comfortably covers the longest single run
		// of the cell (compute + checkpoint overhead + restart).
		horizon := Duration(spec.row.Degree)*solve + ckptOverhead(spec.row.Interval) +
			cfg.RestartCost + solve
		tasks[i] = runner.Task[expCell]{
			Spec: runner.Spec{
				Index: i,
				Label: fmt.Sprintf("mttf=%.0fs %s r=%d", spec.row.MTTF.Seconds(), spec.row.Arm, spec.row.Degree),
				Seed:  spec.seed,
			},
			Run: func(ctx context.Context) (expCell, error) {
				base := cfg.baseConfig()
				base.Store = NewStore()
				camp := Campaign{
					Base:    base,
					Seed:    spec.seed,
					MaxRuns: cfg.MaxRuns,
					DrawFailures: func(run int, start Time) Schedule {
						rng := rand.New(rand.NewSource(spec.seed + int64(run)*101))
						return fault.PoissonSchedule(rng, cfg.Ranks, spec.row.MTTF, horizon, start)
					},
					SuccessFor: replicatedSuccess(cfg.Ranks, spec.row.Degree),
					// Clean checkpoint sets between runs with the
					// replica-aware criterion: the every-world-rank test
					// would delete sets a dead replica left incomplete but
					// that still cover every logical rank — exactly the
					// sets the restart resumes from.
					CheckpointPrefix: sc.Prefix,
					SetCompleteFor:   ReplicatedSetComplete(cfg.Ranks, spec.row.Degree),
					AppFor:           func(int) App { return RunReplicatedStencil(sc) },
				}
				res, err := camp.RunContext(ctx)
				return expCell{camp: res}, err
			},
		}
	}

	cells, rstats, err := runner.Run(ctx, cfg.runnerConfig(), tasks)
	table.Stats.Runner = rstats
	for _, c := range cells {
		table.Stats.absorbCampaign(c.camp)
	}
	if err != nil {
		return table, err
	}
	for i, spec := range specs {
		row := spec.row
		camp := cells[i].camp
		row.E2 = camp.E2
		row.F = camp.Failures
		row.Runs = len(camp.Runs)
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// --- Checkpoint-I/O ablation: Table II with the I/O cost on --------------

// Checkpoint-I/O ablation arm names.
const (
	// IOArmFree is the paper's Table II configuration: checkpoint I/O
	// charges nothing (the zero-cost assumption under test).
	IOArmFree = "free"
	// IOArmFlatPFS charges every checkpoint against a single shared
	// parallel file system whose aggregate backplane saturates, so the
	// per-client bandwidth degrades as 1/clients at scale.
	IOArmFlatPFS = "flat-pfs"
	// IOArmTiered stages checkpoints through the multi-tier hierarchy
	// (node-local memory → burst buffer → PFS): the commit costs only
	// the fast local tier, drains to the deeper tiers overlap compute.
	IOArmTiered = "tiered"
	// IOArmTieredIncr adds incremental (delta) checkpoints on top of the
	// tiered hierarchy.
	IOArmTieredIncr = "tiered-incr"
)

// ioAblationArms lists the sweep's arms in report order.
var ioAblationArms = []string{IOArmFree, IOArmFlatPFS, IOArmTiered, IOArmTieredIncr}

// CheckpointIOAblationConfig parameterises the checkpoint-I/O ablation:
// the Table II sweep rerun with the file-system cost enabled, once per
// storage arm, to show where the paper's zero-cost checkpoint assumption
// breaks at scale and how much of the flat-PFS overhead hierarchical
// (and incremental) checkpointing recovers.
type CheckpointIOAblationConfig struct {
	// RunSpec carries the shared simulation parameters (Ranks defaults
	// to the paper's 32,768) and the campaign-pool controls.
	RunSpec
	// Iterations is the total iteration count (paper: 1,000).
	Iterations int
	// Intervals are the checkpoint intervals to sweep (paper: 500, 250,
	// 125). The no-failure baseline with a single final checkpoint is
	// always included.
	Intervals []int
	// MTTFs are the system MTTF values to sweep (default 6,000 s only —
	// one Table II block per arm keeps the 4-arm grid tractable).
	MTTFs []Duration
	// CheckpointPayload is the modelled per-rank checkpoint size
	// (default 256 MiB). The paper's 16³-points cube is ~32 KB per rank,
	// invisible at any bandwidth; production-scale state is what makes
	// the I/O cost observable.
	CheckpointPayload int
	// DeltaFraction and FullEvery parameterise the incremental arm
	// (defaults 0.25 and 4: deltas are a quarter of the payload, every
	// fourth checkpoint is full).
	DeltaFraction float64
	FullEvery     int
	// Flat is the flat-PFS arm's cost model (default PaperPFSShared()).
	Flat fsmodel.Model
	// Tiers is the tiered arms' storage hierarchy (default
	// PaperTieredFS()).
	Tiers fsmodel.Hierarchy
	// MaxRuns caps failure/restart cycles per campaign cell.
	MaxRuns int
}

// defaults fills the zero fields.
func (cfg *CheckpointIOAblationConfig) defaults() {
	cfg.RunSpec.defaults(32768)
	if cfg.Iterations == 0 {
		cfg.Iterations = 1000
	}
	if len(cfg.Intervals) == 0 {
		cfg.Intervals = []int{cfg.Iterations / 2, cfg.Iterations / 4, cfg.Iterations / 8}
	}
	if len(cfg.MTTFs) == 0 {
		cfg.MTTFs = []Duration{6000 * Second}
	}
	if cfg.CheckpointPayload == 0 {
		cfg.CheckpointPayload = 256 << 20
	}
	if cfg.DeltaFraction == 0 {
		cfg.DeltaFraction = 0.25
	}
	if cfg.FullEvery == 0 {
		cfg.FullEvery = 4
	}
	if cfg.Flat == (fsmodel.Model{}) {
		cfg.Flat = fsmodel.PaperPFSShared()
	}
	if cfg.Tiers == nil {
		cfg.Tiers = fsmodel.PaperTieredFS()
	}
}

// CheckpointIOAblationRow is one cell of the ablation: Table II's columns
// plus the storage arm.
type CheckpointIOAblationRow struct {
	// Arm is the storage configuration (IOArmFree … IOArmTieredIncr).
	Arm string
	// MTTFs is the system MTTF (0 for the no-failure E1 rows).
	MTTFs Duration
	// C is the checkpoint interval in iterations.
	C int
	// E1 is the simulated execution time without failures.
	E1 Time
	// E2 is the simulated execution time with failures and restarts.
	E2 Time
	// F is the number of injected failures experienced.
	F int
	// MTTFa is the experienced application mean-time-to-failure.
	MTTFa Duration
	// Runs is the number of application runs (1 + restarts).
	Runs int
}

// CheckpointIOAblation is the ablation result.
type CheckpointIOAblation struct {
	Config CheckpointIOAblationConfig
	// Rows holds one entry per (arm, MTTF, interval) cell plus one
	// baseline E1 row per arm, in sweep order.
	Rows []CheckpointIOAblationRow
	// Stats pools the grid's execution accounting and simulation metrics.
	Stats CampaignStats
}

// Row returns the cell for (arm, mttf, c), or nil. The per-arm baseline
// and E1 rows have mttf 0.
func (t *CheckpointIOAblation) Row(arm string, mttf Duration, c int) *CheckpointIOAblationRow {
	for i := range t.Rows {
		r := &t.Rows[i]
		if r.Arm == arm && r.MTTFs == mttf && r.C == c {
			return r
		}
	}
	return nil
}

// RecoveredE1 reports the fraction of the flat-PFS failure-free overhead
// the given arm recovers at checkpoint interval c:
// (E1_flat − E1_arm) / (E1_flat − E1_free). 1 means checkpoint I/O became
// free again; 0 means the arm is as slow as the flat PFS.
func (t *CheckpointIOAblation) RecoveredE1(arm string, c int) float64 {
	free, flat, a := t.Row(IOArmFree, 0, c), t.Row(IOArmFlatPFS, 0, c), t.Row(arm, 0, c)
	if free == nil || flat == nil || a == nil || flat.E1 <= free.E1 {
		return 0
	}
	return float64(flat.E1-a.E1) / float64(flat.E1-free.E1)
}

// Recovered reports the fraction of the flat-PFS end-to-end overhead
// (failures and restarts included) the given arm recovers in the
// (mttf, c) campaign cell: (E2_flat − E2_arm) / (E2_flat − E2_free).
func (t *CheckpointIOAblation) Recovered(arm string, mttf Duration, c int) float64 {
	free, flat, a := t.Row(IOArmFree, mttf, c), t.Row(IOArmFlatPFS, mttf, c), t.Row(arm, mttf, c)
	if free == nil || flat == nil || a == nil || flat.E2 <= free.E2 {
		return 0
	}
	return float64(flat.E2-a.E2) / float64(flat.E2-free.E2)
}

// RunCheckpointIOAblation runs the ablation; it is
// RunCheckpointIOAblationContext without cancellation.
func RunCheckpointIOAblation(cfg CheckpointIOAblationConfig) (*CheckpointIOAblation, error) {
	return RunCheckpointIOAblationContext(context.Background(), cfg)
}

// RunCheckpointIOAblationContext reruns the Table II sweep with checkpoint
// I/O cost enabled, once per storage arm: free (the paper's zero-cost
// assumption), a flat shared PFS, the multi-tier hierarchy with staged
// writes, and the hierarchy plus incremental checkpoints. Every arm sweeps
// the same intervals and MTTFs, and a campaign cell's failure draws depend
// only on Seed and its MTTF — not the arm — so all arms face identical
// failure sequences and their E2 columns are directly comparable. Cells
// fan out across the campaign pool; rows are assembled from the fixed
// sweep order, so the table is identical at any pool size.
func RunCheckpointIOAblationContext(ctx context.Context, cfg CheckpointIOAblationConfig) (*CheckpointIOAblation, error) {
	cfg.defaults()
	base, err := HeatWorkloadFor(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	base.Iterations = cfg.Iterations
	base.CheckpointPayload = cfg.CheckpointPayload
	base.FullEvery = cfg.FullEvery

	type armSpec struct {
		name  string
		model fsmodel.Model
		hier  fsmodel.Hierarchy
		delta float64
	}
	arms := []armSpec{
		{IOArmFree, fsmodel.Model{}, nil, 0},
		{IOArmFlatPFS, cfg.Flat, nil, 0},
		{IOArmTiered, fsmodel.Model{}, cfg.Tiers, 0},
		{IOArmTieredIncr, fsmodel.Model{}, cfg.Tiers, cfg.DeltaFraction},
	}
	simFor := func(a armSpec) Config {
		c := cfg.baseConfig()
		c.FSModel = a.model
		c.FSHierarchy = a.hier
		return c
	}
	heatAt := func(a armSpec, interval int) HeatConfig {
		hc := base
		hc.ExchangeInterval = interval
		hc.CheckpointInterval = interval
		hc.DeltaFraction = a.delta
		return hc
	}

	// Task order: per arm a baseline E1 and the per-interval E1s, then the
	// campaign grid in (arm, MTTF, interval) row order. Rows are assembled
	// from this fixed order, never from completion order.
	var tasks []runner.Task[expCell]
	e1Task := func(a armSpec, interval int) {
		simCfg := simFor(a)
		hc := heatAt(a, interval)
		tasks = append(tasks, runner.Task[expCell]{
			Spec: runner.Spec{Index: len(tasks), Label: fmt.Sprintf("%s E1 c=%d", a.name, interval)},
			Run: func(ctx context.Context) (expCell, error) {
				res, err := cfg.runHeatE1(ctx, simCfg, hc)
				return expCell{res: res}, err
			},
		})
	}
	for _, a := range arms {
		e1Task(a, cfg.Iterations)
		for _, c := range cfg.Intervals {
			e1Task(a, c)
		}
	}
	campStart := len(tasks)
	for _, a := range arms {
		for _, mttf := range cfg.MTTFs {
			for _, c := range cfg.Intervals {
				a, mttf := a, mttf
				simCfg := simFor(a)
				hc := heatAt(a, c)
				// The seed mixes in the MTTF but not the arm: every arm
				// faces the same failure sequences.
				seed := cfg.Seed + int64(mttf)
				tasks = append(tasks, runner.Task[expCell]{
					Spec: runner.Spec{
						Index: len(tasks),
						Label: fmt.Sprintf("%s mttf=%.0fs c=%d", a.name, mttf.Seconds(), c),
						Seed:  seed,
					},
					Run: func(ctx context.Context) (expCell, error) {
						camp := Campaign{
							Base:             simCfg,
							MTTF:             mttf,
							Seed:             seed,
							MaxRuns:          cfg.MaxRuns,
							CheckpointPrefix: "heat",
						}
						cfg.setHeatApp(&camp, hc)
						res, err := camp.RunContext(ctx)
						return expCell{camp: res}, err
					},
				})
			}
		}
	}

	cells, rstats, err := runner.Run(ctx, cfg.runnerConfig(), tasks)
	table := &CheckpointIOAblation{Config: cfg, Stats: CampaignStats{Runner: rstats}}
	for _, c := range cells {
		table.Stats.absorb(c.res)
		table.Stats.absorbCampaign(c.camp)
	}
	if err != nil {
		return table, err
	}

	i := 0
	for _, a := range arms {
		table.Rows = append(table.Rows, CheckpointIOAblationRow{
			Arm: a.name, C: cfg.Iterations, E1: cells[i].res.SimTime, Runs: 1,
		})
		i++
		for _, c := range cfg.Intervals {
			table.Rows = append(table.Rows, CheckpointIOAblationRow{
				Arm: a.name, C: c, E1: cells[i].res.SimTime, Runs: 1,
			})
			i++
		}
	}
	i = campStart
	for _, a := range arms {
		for _, mttf := range cfg.MTTFs {
			for _, c := range cfg.Intervals {
				camp := cells[i].camp
				i++
				e1 := Time(0)
				if r := t0Row(table, a.name, c); r != nil {
					e1 = r.E1
				}
				table.Rows = append(table.Rows, CheckpointIOAblationRow{
					Arm:   a.name,
					MTTFs: mttf,
					C:     c,
					E1:    e1,
					E2:    camp.E2,
					F:     camp.Failures,
					MTTFa: camp.MTTFa(),
					Runs:  len(camp.Runs),
				})
			}
		}
	}
	return table, nil
}

// t0Row returns the arm's no-failure E1 row at interval c.
func t0Row(t *CheckpointIOAblation, arm string, c int) *CheckpointIOAblationRow {
	return t.Row(arm, 0, c)
}

// Render prints the ablation, one Table II-shaped block per arm, followed
// by the recovered-overhead summary the tiered arms exist to demonstrate.
func (t *CheckpointIOAblation) Render() string {
	header := []string{"arm", "MTTF_s", "C", "E1", "E2", "F", "MTTF_a"}
	var rows [][]string
	secs := func(v vclock.Time) string {
		if v == 0 {
			return "—"
		}
		return fmt.Sprintf("%.0f s", v.Seconds())
	}
	for _, r := range t.Rows {
		mttf, e2, f, mttfa := "—", "—", "0", "—"
		if r.MTTFs > 0 {
			mttf = fmt.Sprintf("%.0f s", r.MTTFs.Seconds())
			e2 = secs(r.E2)
			f = fmt.Sprintf("%d", r.F)
			mttfa = fmt.Sprintf("%.0f s", r.MTTFa.Seconds())
		}
		rows = append(rows, []string{r.Arm, mttf, fmt.Sprintf("%d", r.C), secs(r.E1), e2, f, mttfa})
	}
	var b strings.Builder
	b.WriteString(stats.Table(header, rows))
	b.WriteString("\nrecovered fraction of flat-PFS overhead (1 = I/O free again):\n")
	for _, arm := range []string{IOArmTiered, IOArmTieredIncr} {
		for _, c := range t.Config.Intervals {
			fmt.Fprintf(&b, "  %-12s c=%-4d E1: %4.0f %%", arm, c, 100*t.RecoveredE1(arm, c))
			for _, mttf := range t.Config.MTTFs {
				fmt.Fprintf(&b, "   E2@%.0fs: %4.0f %%", mttf.Seconds(), 100*t.Recovered(arm, mttf, c))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Render prints the crossover table, one block per MTTF, marking each
// block's winning arm.
func (t *ReplicationCrossover) Render() string {
	header := []string{"MTTF", "arm", "r", "c", "E2", "F", "runs", "predicted", ""}
	var rows [][]string
	for _, mttf := range t.Config.MTTFs {
		var best *ReplicationCrossoverRow
		for i := range t.Rows {
			r := &t.Rows[i]
			if r.MTTF == mttf && (best == nil || r.E2 < best.E2) {
				best = r
			}
		}
		for i := range t.Rows {
			r := &t.Rows[i]
			if r.MTTF != mttf {
				continue
			}
			interval := "—"
			if r.Interval > 0 {
				interval = fmt.Sprintf("%d", r.Interval)
			}
			mark := ""
			if r == best {
				mark = "◀ best"
			}
			rows = append(rows, []string{
				fmt.Sprintf("%.0f s", r.MTTF.Seconds()),
				r.Arm,
				fmt.Sprintf("%d", r.Degree),
				interval,
				fmt.Sprintf("%.0f s", r.E2.Seconds()),
				fmt.Sprintf("%d", r.F),
				fmt.Sprintf("%d", r.Runs),
				fmt.Sprintf("%.0f s", r.Predicted.Seconds()),
				mark,
			})
		}
	}
	return fmt.Sprintf("solve (E1, r=1): %.0f s\n%s", t.Solve.Seconds(), stats.Table(header, rows))
}
