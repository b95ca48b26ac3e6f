package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"xsim"
)

// table2Ranks is the world size of the table2-8k workload: the paper's
// Table II grid at a quarter of its 32,768 ranks, so one grid fits the
// benchmark's run length.
const table2Ranks = 8192

// table2Config is the paper's Table II configuration: baseline plus
// intervals 500/250/125 × MTTF 6000/3000 s over 1,000 iterations, closure
// mode, linear collectives, PaperCallOverhead, zero-cost file system,
// one engine worker per run and two runs in flight.
//
// The failure draws always use the golden seed: the number of restarts a
// seed draws changes the grid's simulated work by up to half, which would
// swamp any change in host speed. The workload seed instead permutes the
// order of the intervals and the MTTFs, and with it the order in which
// the grid's cells reach the campaign pool; the rows do not depend on it.
func table2Config(seed int64) xsim.TableIIConfig {
	rng := rand.New(rand.NewSource(seed))
	intervals := []int{500, 250, 125}
	mttfs := []xsim.Duration{6000 * xsim.Second, 3000 * xsim.Second}
	rng.Shuffle(len(intervals), func(i, j int) { intervals[i], intervals[j] = intervals[j], intervals[i] })
	rng.Shuffle(len(mttfs), func(i, j int) { mttfs[i], mttfs[j] = mttfs[j], mttfs[i] })
	return xsim.TableIIConfig{
		RunSpec: xsim.RunSpec{
			Ranks:        table2Ranks,
			Workers:      1,
			Pool:         2,
			Seed:         defaultSeed,
			CallOverhead: xsim.PaperCallOverhead,
		},
		Iterations: 1000,
		Intervals:  intervals,
		MTTFs:      mttfs,
	}
}

type table2System struct {
	cfg    xsim.TableIIConfig
	newDur time.Duration // one 8,192-rank world's construction
	golden []xsim.TableIIRow
}

// setupTable2 builds the grid's configuration and, as the set-up cost the
// grid pays for every one of its runs, one world of its shape.
func setupTable2(seed int64) (system, error) {
	s := &table2System{cfg: table2Config(seed)}
	if !goldenMode {
		if _, err := loadGolden(wTable2, &s.golden); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	_, err := xsim.New(xsim.Config{Ranks: table2Ranks, Workers: 1, CallOverhead: xsim.PaperCallOverhead})
	s.newDur = time.Since(t0)
	return s, err
}

func (s *table2System) close() {}

func (s *table2System) rep(tr *tracer) repResult {
	r := repResult{layers: values{}}
	root := tr.begin("rep", "bench", "table2-8k", nil)
	defer tr.end(root)
	grid := tr.begin("rep", "runner", "xsim.RunTableIIContext", root)

	// Cell spans and submit→result latencies come from the pool's
	// progress feed; the runner never calls it concurrently and returns
	// only after its last call.
	cfg := s.cfg
	cfg.OnProgress = func(ev xsim.ProgressEvent) {
		if ev.State != "completed" && ev.State != "failed" {
			return
		}
		now := time.Now()
		elapsed := time.Duration(ev.ElapsedNS)
		if ev.State == "completed" {
			r.lat.add(time.Duration(ev.WaitNS) + elapsed)
		}
		cell := tr.add(fmt.Sprintf("cell:%d", ev.Index), "cell", ev.Label, grid.id(), now.Add(-elapsed))
		tr.endAt(cell, now)
	}

	start := time.Now()
	table, err := xsim.RunTableIIContext(context.Background(), cfg)
	tr.end(grid)
	check := tr.begin("rep", "bench", "verify", root)
	r.problems = s.verify(table, err)
	tr.end(check)
	r.wall = time.Since(start)

	tasks := 1 + len(cfg.Intervals) + len(cfg.Intervals)*len(cfg.MTTFs)
	if err != nil || table == nil || len(table.Rows) == 0 {
		r.ops, r.failed = tasks, tasks
		return r
	}
	// Operations are simulation runs: the baseline, one E1 run per
	// interval, and every run of every restart chain.
	restartRuns, failures := 0, 0
	for _, row := range table.Rows[1:] {
		restartRuns += row.Runs
		failures += row.F
	}
	r.ops = 1 + len(cfg.Intervals) + restartRuns
	if len(r.problems) > 0 {
		r.failed = r.ops
	}
	st := table.Stats
	r.vpSimSec = float64(table2Ranks) * st.SimTime.Seconds()

	v := r.layers
	tr.set(root, v, "core.new_s", s.newDur.Seconds())
	// Sim.Run happens inside the pool's cells; the time in them is the
	// closest outside measure.
	tr.set(grid, v, "core.run_s", st.Runner.RunWall.Seconds())
	tr.set(grid, v, "core.events_per_s", ratio(float64(st.Engine.EventsDispatched), st.Runner.RunWall.Seconds()))
	setEngine(tr, grid, v, st.Engine)
	setMPI(tr, grid, v, st.MPI)
	tr.set(grid, v, "restart.runs", float64(restartRuns))
	tr.set(grid, v, "restart.failures", float64(failures))
	// Each cell's Store is private to RunTableIIContext: not observable.
	tr.set(grid, v, "checkpoint.files", 0)
	tr.set(grid, v, "checkpoint.bytes_stored", 0)
	tr.set(grid, v, "runner.runs", float64(st.Runner.Started))
	tr.set(grid, v, "runner.run_wall_s", st.Runner.RunWall.Seconds())
	tr.set(grid, v, "runner.queue_wait_s", st.Runner.QueueWait.Seconds())
	tr.set(grid, v, "runner.pool_speedup", ratio(st.Runner.RunWall.Seconds(), st.Runner.Wall.Seconds()))
	tr.set(grid, v, "runner.retries", float64(st.Runner.Retries))
	return r
}

// verify checks the grid's rows: the invariants, and the golden rows.
func (s *table2System) verify(table *xsim.TableII, err error) []string {
	if err != nil {
		return []string{fmt.Sprintf("table2-8k: %v", err)}
	}
	want := 1 + len(s.cfg.Intervals)*len(s.cfg.MTTFs)
	if len(table.Rows) != want {
		return []string{fmt.Sprintf("table2-8k: %d rows, want %d", len(table.Rows), want)}
	}
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, "table2-8k: "+fmt.Sprintf(format, args...))
	}
	if b := table.Rows[0]; b.E1 <= 0 || b.Runs != 1 {
		bad("baseline row %+v", b)
	}
	for _, row := range table.Rows[1:] {
		if row.E1 <= 0 || row.E2 < row.E1 {
			bad("row mttf=%v c=%d: E2 %v < E1 %v", row.MTTFs, row.C, row.E2, row.E1)
		}
		if row.Runs != row.F+1 {
			bad("row mttf=%v c=%d: %d runs for %d failures", row.MTTFs, row.C, row.Runs, row.F)
		}
	}
	// Rows follow the permuted configuration order; golden rows are
	// matched by (MTTF, interval).
	if goldenMode {
		if err := saveGolden(wTable2, table.Rows); err != nil {
			bad("saving golden: %v", err)
		}
		return problems
	}
	if len(s.golden) != len(table.Rows) {
		bad("%d rows, golden has %d", len(table.Rows), len(s.golden))
		return problems
	}
	golden := make(map[[2]int64]xsim.TableIIRow, len(s.golden))
	for _, row := range s.golden {
		golden[[2]int64{int64(row.MTTFs), int64(row.C)}] = row
	}
	for _, row := range table.Rows {
		if want := golden[[2]int64{int64(row.MTTFs), int64(row.C)}]; row != want {
			bad("row %+v, golden %+v", row, want)
		}
	}
	return problems
}

// setEngine records the engine counters shared by the simulation
// workloads.
func setEngine(tr *tracer, sp *span, v values, e xsim.EngineMetrics) {
	tr.set(sp, v, "core.events", float64(e.EventsDispatched))
	tr.set(sp, v, "core.resumes", float64(e.Resumes))
	tr.set(sp, v, "core.program_steps", float64(e.ProgramSteps))
	tr.set(sp, v, "core.event_pool_hit_ratio", ratio(float64(e.PoolHits), float64(e.PoolHits+e.PoolMisses)))
	tr.set(sp, v, "core.carriers_high_water", float64(e.CarriersHighWater))
	tr.set(sp, v, "core.window_rounds", float64(e.BarrierRounds))
	tr.set(sp, v, "core.window_width_mean_us", float64(e.AvgWindowWidth())/float64(xsim.Microsecond))
	tr.set(sp, v, "core.cross_events", float64(e.CrossEvents))
}

// setMPI records the MPI data-plane counters.
func setMPI(tr *tracer, sp *span, v values, m xsim.MPIMetrics) {
	tr.set(sp, v, "mpi.eager_msgs", float64(m.EagerMsgs))
	tr.set(sp, v, "mpi.rendezvous_msgs", float64(m.RendezvousMsgs))
	tr.set(sp, v, "mpi.collective_ops", float64(m.CollectiveOps))
	tr.set(sp, v, "mpi.unexpected_max", float64(m.UnexpectedMax))
	tr.set(sp, v, "mpi.pool_hit_ratio", ratio(float64(m.PoolHits), float64(m.PoolHits+m.PoolMisses)))
	tr.set(sp, v, "mpi.buf_hit_ratio", ratio(float64(m.BufHits), float64(m.BufHits+m.BufMisses)))
	tr.set(sp, v, "mpi.buf_high_water_bytes", float64(m.BufHighWater))
}
