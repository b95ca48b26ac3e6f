package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"xsim"
	"xsim/internal/mpi"
	"xsim/internal/runner"
)

// heatRanks is the world size of the heat-prog-128k workload.
const heatRanks = 131072

// heatConfig is the scale workload: the paper's per-rank heat cube (16³
// points, modelled compute) with a halo exchange every iteration and a
// checkpoint every second one, for 4 iterations (two checkpoint rounds).
// Four rather than eight keeps a repetition near 10 s, so a run's median
// rests on several repetitions: at two engine workers a burst of load
// from elsewhere on the host stalls both partitions at every window.
func heatConfig() (xsim.HeatConfig, error) {
	hc, err := xsim.HeatWorkloadFor(heatRanks)
	hc.Iterations = 4
	hc.ExchangeInterval = 1
	hc.CheckpointInterval = 2
	return hc, err
}

// heatSimConfig is the world: program mode at the given engine workers,
// tree collectives (a linear barrier at this scale would serialize on
// rank 0), and the paper's tiered checkpoint storage. The seed only
// shifts the virtual start clock, so every seed does the same work and
// the results, taken relative to the start, are seed-independent.
func heatSimConfig(seed int64, workers int, store *xsim.Store) xsim.Config {
	offset := seed % 1000
	if offset < 0 {
		offset = -offset
	}
	return xsim.Config{
		Ranks:       heatRanks,
		Workers:     workers,
		Collectives: mpi.Tree,
		FSHierarchy: xsim.PaperTieredFS(),
		Store:       store,
		StartClock:  xsim.Time(offset * int64(xsim.Second)),
	}
}

// heatGolden is the seed-independent outcome of the heat world.
type heatGolden struct {
	SimTimeNS    int64  `json:"sim_time_ns"` // relative to the start clock
	ClockDigest  string `json:"per_rank_clock_sha256"`
	Completed    int    `json:"completed"`
	ProgramSteps uint64 `json:"program_steps"`
}

type heatSystem struct {
	seed   int64
	hc     xsim.HeatConfig
	store  *xsim.Store
	sim    *xsim.Sim
	newDur time.Duration
	golden *heatGolden
}

func setupHeat(seed int64) (system, error) {
	hc, err := heatConfig()
	if err != nil {
		return nil, err
	}
	s := &heatSystem{seed: seed, hc: hc, store: xsim.NewStore()}
	if !goldenMode {
		var g heatGolden
		ok, err := loadGolden(wHeat, &g)
		if err != nil {
			return nil, err
		}
		if ok {
			s.golden = &g
		}
	}
	t0 := time.Now()
	s.sim, err = xsim.New(heatSimConfig(seed, 2, s.store))
	s.newDur = time.Since(t0)
	return s, err
}

func (s *heatSystem) close() {}

// outcome summarises a finished heat world for comparison with golden.
func (s *heatSystem) outcome(res *xsim.Result) heatGolden {
	h := sha256.New()
	var buf [8]byte
	for _, c := range res.PerRank {
		binary.LittleEndian.PutUint64(buf[:], uint64(c.Sub(res.StartClock)))
		h.Write(buf[:])
	}
	return heatGolden{
		SimTimeNS:    int64(res.SimTime.Sub(res.StartClock)),
		ClockDigest:  hex.EncodeToString(h.Sum(nil)),
		Completed:    res.Completed,
		ProgramSteps: res.Engine.ProgramSteps,
	}
}

func (s *heatSystem) rep(tr *tracer) repResult {
	r := repResult{layers: values{}}
	root := tr.begin("rep", "bench", "heat-prog-128k", nil)
	defer tr.end(root)
	v := r.layers

	// The world runs as the campaign pool's single task.
	start := time.Now()
	pool := tr.begin("rep", "runner", "runner.Run", root)
	var run *span
	var runDur time.Duration
	results, st, err := runner.Run(context.Background(), runner.Config{Pool: 1, EngineWorkers: 2},
		[]runner.Task[*xsim.Result]{{
			Spec: runner.Spec{Label: "heat-prog-128k"},
			Run: func(ctx context.Context) (*xsim.Result, error) {
				run = tr.begin("run:0", "core", "Sim.RunProgsContext", pool)
				t0 := time.Now()
				res, err := s.sim.RunProgsContext(ctx, xsim.RunHeatProg(s.hc))
				runDur = time.Since(t0)
				tr.end(run)
				return res, err
			},
		}})
	tr.end(pool)
	check := tr.begin("rep", "checkpoint", "store scan", root)
	files, bytes := 0, 0
	for _, name := range s.store.List("") {
		files++
		bytes += s.store.Size(name)
	}
	tr.set(check, v, "checkpoint.files", float64(files))
	tr.set(check, v, "checkpoint.bytes_stored", float64(bytes))
	tr.end(check)
	var res *xsim.Result
	if err == nil {
		res = results[0]
		r.problems = s.verify(res, files)
	} else {
		r.problems = []string{fmt.Sprintf("heat-prog-128k: %v", err)}
	}
	r.wall = time.Since(start)
	r.ops = 1
	if len(r.problems) > 0 {
		r.failed = 1
		return r
	}
	r.lat.add(st.QueueWait + st.RunWall)
	r.vpSimSec = float64(heatRanks) * res.SimTime.Sub(res.StartClock).Seconds()

	tr.set(root, v, "core.new_s", s.newDur.Seconds())
	tr.set(run, v, "core.run_s", runDur.Seconds())
	tr.set(run, v, "core.events_per_s", ratio(float64(res.Engine.EventsDispatched), runDur.Seconds()))
	setEngine(tr, run, v, res.Engine)
	setMPI(tr, run, v, res.MPI)
	tr.set(run, v, "restart.runs", 1)
	tr.set(run, v, "restart.failures", float64(res.Failed))
	tr.set(pool, v, "runner.runs", float64(st.Started))
	tr.set(pool, v, "runner.run_wall_s", st.RunWall.Seconds())
	tr.set(pool, v, "runner.queue_wait_s", st.QueueWait.Seconds())
	tr.set(pool, v, "runner.pool_speedup", ratio(st.RunWall.Seconds(), st.Wall.Seconds()))
	tr.set(pool, v, "runner.retries", float64(st.Retries))

	if tr != nil {
		// The traced repetition also runs the world at Workers=1: the
		// parallel engine's speedup, and a check that the simulated
		// outcome does not depend on the worker count. The Workers=2
		// world is released first so the two are never resident at once.
		want := s.outcome(res)
		s.sim, results, res = nil, nil, nil
		r.ops++
		if err := s.runSequential(tr, root, v, want, runDur); err != nil {
			r.problems = append(r.problems, err.Error())
			r.failed++
		}
	}
	return r
}

// runSequential runs the world at Workers=1 and records the Workers=2
// speedup of Sim.RunProgs.
func (s *heatSystem) runSequential(tr *tracer, root *span, v values, want heatGolden, parDur time.Duration) error {
	runtime.GC()
	sp := tr.begin("run:1", "core", "Sim.RunProgs workers=1", root)
	defer tr.end(sp)
	sim, err := xsim.New(heatSimConfig(s.seed, 1, xsim.NewStore()))
	if err != nil {
		return fmt.Errorf("heat-prog-128k workers=1: %w", err)
	}
	t0 := time.Now()
	res, err := sim.RunProgs(xsim.RunHeatProg(s.hc))
	seqDur := time.Since(t0)
	if err != nil {
		return fmt.Errorf("heat-prog-128k workers=1: %w", err)
	}
	if s.outcome(res) != want {
		return fmt.Errorf("heat-prog-128k: workers=1 outcome differs from workers=2")
	}
	tr.set(sp, v, "core.workers2_speedup", seqDur.Seconds()/parDur.Seconds())
	return nil
}

// verify checks that every rank completed and that the outcome matches
// the golden one.
func (s *heatSystem) verify(res *xsim.Result, files int) []string {
	var problems []string
	if res.Completed != heatRanks || res.Failed != 0 || res.Aborted != 0 {
		problems = append(problems, fmt.Sprintf("heat-prog-128k: %d completed, %d failed, %d aborted of %d ranks",
			res.Completed, res.Failed, res.Aborted, heatRanks))
	}
	if files == 0 {
		problems = append(problems, "heat-prog-128k: no checkpoint files in the store")
	}
	got := s.outcome(res)
	switch {
	case goldenMode:
		if err := saveGolden(wHeat, got); err != nil {
			problems = append(problems, fmt.Sprintf("saving golden: %v", err))
		}
	case s.golden == nil:
		problems = append(problems, "heat-prog-128k: no golden outcome recorded")
	case got != *s.golden:
		problems = append(problems, fmt.Sprintf("heat-prog-128k: outcome %+v, golden %+v", got, *s.golden))
	}
	return problems
}
