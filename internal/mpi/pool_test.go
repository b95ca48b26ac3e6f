package mpi

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"xsim/internal/core"
	"xsim/internal/procmodel"
)

// freeLens reports the length of every free list in a pool, by name.
func freeLens(p *dpPool) map[string]int {
	lens := map[string]int{
		"envs": p.envs.Len(),
		"reqs": p.reqs.Len(),
		"msgs": p.msgs.Len(),
		"cts":  p.cts.Len(),
		"dms":  p.dms.Len(),
	}
	for c := range p.bufs {
		lens[fmt.Sprintf("bufs[%d]", c)] = p.bufs[c].Len()
	}
	return lens
}

// poolHoldsNothing reports whether a pool keeps no lists, slabs or
// blocking states — everything but its counters is zero.
func poolHoldsNothing(p *dpPool) bool {
	q := *p
	q.objHits, q.objMisses, q.bufHits, q.bufMisses = 0, 0, 0, 0
	q.bufOut, q.bufHighWater = 0, 0
	return reflect.ValueOf(q).IsZero()
}

// TestPoolsBoundedUnderOneWayTraffic runs rendezvous-sized linear gathers
// into rank 0 at two workers: envelopes, payload records and events flow
// from the upper partition into the lower one, clear-to-sends the other
// way, and nothing carries them back. Each partition tracks, from its own
// context, the longest each of its free lists ever got; none may exceed
// the run's in-flight high-water (every rank has at most a couple of
// objects of each kind outstanding, the root at most one receive per
// rank), however many rounds run. Lists without a bound would hold one
// object per migrated message — rounds × n/2 on the receiving side.
func TestPoolsBoundedUnderOneWayTraffic(t *testing.T) {
	const (
		n       = 64
		workers = 2
		rounds  = 48
		bound   = 2 * n
	)
	payload := make([]byte, 2048) // above testNet's 1 KiB eager threshold
	maxLens := make([]map[string]int, workers)
	for i := range maxLens {
		maxLens[i] = map[string]int{}
	}
	record := func(e *Env) {
		m := maxLens[e.ctx.Partition()]
		for name, l := range freeLens(e.ps.dp) {
			if l > m[name] {
				m[name] = l
			}
		}
	}
	if _, err := runWorldErr(t, n, workers, nil, func(e *Env) {
		c := e.World()
		for i := 0; i < rounds; i++ {
			if _, err := c.Gather(0, payload); err != nil {
				t.Errorf("rank %d gather %d: %v", e.Rank(), i, err)
				return
			}
			record(e)
		}
	}); err != nil {
		t.Fatal(err)
	}
	migrated := 0
	for p, m := range maxLens {
		for name, l := range m {
			if l > bound {
				t.Errorf("partition %d: %s free list reached %d, want <= %d (in-flight bound)", p, name, l, bound)
			}
		}
		migrated += m["envs"]
	}
	if migrated == 0 {
		t.Fatal("no envelope was ever recycled: the workload did not exercise the pools")
	}
}

// TestWorldDropsPoolsAfterRun: once Run or RunProgs returns, every
// partition's data-plane pool holds no free lists, slabs or blocking
// states — only the counters World.Metrics reports.
func TestWorldDropsPoolsAfterRun(t *testing.T) {
	const n = 16
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("closure/workers=%d", workers), func(t *testing.T) {
			_, w := newWorldT(t, n, workers, nil)
			if _, err := w.Run(func(e *Env) {
				defer e.Finalize()
				c := e.World()
				for i := 0; i < 4; i++ {
					if _, err := c.Allreduce([]float64{1}, OpSum); err != nil {
						t.Error(err)
					}
					if _, err := c.Gather(0, make([]byte, 2048)); err != nil {
						t.Error(err)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			checkPoolsDropped(t, w)
		})
		t.Run(fmt.Sprintf("prog/workers=%d", workers), func(t *testing.T) {
			_, w := newWorldT(t, n, workers, nil)
			if _, err := w.RunProgs(func(rank int) Prog {
				return &heatBenchProg{n: n, steps: 4, fail: func(err error) { t.Error(err) }}
			}); err != nil {
				t.Fatal(err)
			}
			checkPoolsDropped(t, w)
		})
	}
}

func checkPoolsDropped(t *testing.T, w *World) {
	t.Helper()
	m := w.Metrics()
	if m.PoolHits+m.PoolMisses == 0 {
		t.Fatal("the run used no pooled objects")
	}
	for i, p := range w.pools {
		if !poolHoldsNothing(p) {
			t.Errorf("pool %d still holds free lists after the run: %v", i, freeLens(p))
		}
	}
}

// TestHaloSteadyStateAllocs is the steady-state allocation gate: at 4,096
// program-mode ranks, running twice as many halo-exchange steps must add
// less than one allocation per rank-step. The first burst's requests,
// envelopes, messages and events stay on the run-lifetime free lists and
// serve every later step, and neither a handler's match nor a program's
// eager send allocates. Allocation counts at one worker are
// deterministic, so the gate cannot flake.
func TestHaloSteadyStateAllocs(t *testing.T) {
	const (
		n     = 4096
		steps = 10
	)
	mallocs := func(steps int) uint64 {
		eng, err := core.New(core.Config{NumVPs: n})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(eng, WorldConfig{Net: testNet(n), Proc: procmodel.Paper()})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := w.RunProgs(func(rank int) Prog {
			return &heatBenchProg{n: n, steps: steps, fail: func(err error) { t.Error(err) }}
		}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	once, twice := mallocs(steps), mallocs(2*steps)
	perRankStep := (float64(twice) - float64(once)) / float64(n*steps)
	t.Logf("%d steps: %d mallocs; %d steps: %d mallocs; %.3f allocs per added rank-step", steps, once, 2*steps, twice, perRankStep)
	if perRankStep >= 1 {
		t.Fatalf("steady-state halo step allocates %.3f times per rank-step, want < 1", perRankStep)
	}
}
