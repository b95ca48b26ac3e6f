package core

import (
	"reflect"
	"testing"

	"xsim/internal/vclock"
)

// TestEventFreeListBoundedUnderOneWayTraffic: at two workers, the upper
// partition's ranks emit a stream of events at rank 0, so every event
// crosses into the lower partition and is recycled there, and none comes
// back. The lower partition's free list must stay within the run's
// in-flight high-water (each sender has at most its emitted event and its
// own sleep timer pending), however long the stream — an unbounded list
// would keep one event per message.
func TestEventFreeListBoundedUnderOneWayTraffic(t *testing.T) {
	const (
		n      = 8
		rounds = 200
		la     = vclock.Duration(1000)
		bound  = 2 * n
	)
	eng, err := New(Config{NumVPs: n, Workers: 2, Lookahead: la})
	if err != nil {
		t.Fatal(err)
	}
	got, maxFree := 0, 0
	eng.RegisterHandler(FirstUserKind, func(s *SchedCtx, ev *Event) {
		got++
		if l := s.part.free.Len(); l > maxFree {
			maxFree = l
		}
	})
	if _, err := eng.Run(func(c *Ctx) {
		if c.Partition() == 0 {
			return
		}
		for i := 0; i < rounds; i++ {
			c.Emit(Event{Time: c.Now().Add(la), Kind: FirstUserKind, Target: 0})
			c.Sleep(la)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got != rounds*n/2 {
		t.Fatalf("rank 0 received %d events, want %d", got, rounds*n/2)
	}
	if maxFree > bound {
		t.Fatalf("receiving partition's free list reached %d events, want <= %d (in-flight bound)", maxFree, bound)
	}
	if m := eng.Metrics(); m.CrossEvents < uint64(got) {
		t.Fatalf("only %d of %d events crossed partitions", m.CrossEvents, got)
	}
}

// TestEngineDropsFreeListsAfterRun: once Run returns, no partition keeps
// a free list or a slab of pooled events.
func TestEngineDropsFreeListsAfterRun(t *testing.T) {
	const la = vclock.Duration(1000)
	for _, workers := range []int{1, 2} {
		eng, err := New(Config{NumVPs: 4, Workers: workers, Lookahead: la})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(func(c *Ctx) {
			for i := 0; i < 10; i++ {
				c.Sleep(la)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if m := eng.Metrics(); m.PoolHits == 0 {
			t.Fatalf("workers=%d: the run never reused a pooled event: %+v", workers, m)
		}
		for _, p := range eng.parts {
			if !reflect.ValueOf(p.free).IsZero() {
				t.Errorf("workers=%d: partition %d still holds %d free events after the run", workers, p.id, p.free.Len())
			}
		}
	}
}
