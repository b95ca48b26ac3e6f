package freelist

import (
	"reflect"
	"testing"
)

// TestListReusesBurst: a burst's objects all come back and serve the next
// burst of the same size without a single fresh object, and fresh
// objects are carved from slabs.
func TestListReusesBurst(t *testing.T) {
	type obj struct{ a, b int }
	var l List[obj]
	const burst = 3*SlabSize + 5
	got := make([]*obj, burst)
	for round := 0; round < 3; round++ {
		fresh := 0
		for i := range got {
			x, f := l.Get()
			if *x != (obj{}) {
				t.Fatalf("round %d: Get returned a dirty object %+v", round, *x)
			}
			if f {
				fresh++
			}
			x.a, x.b = round, i
			got[i] = x
		}
		switch {
		case round == 0 && fresh != burst:
			t.Fatalf("first burst: %d fresh objects, want %d", fresh, burst)
		case round > 0 && fresh != 0:
			t.Fatalf("round %d: %d fresh objects, want the first burst reused", round, fresh)
		}
		for _, x := range got {
			l.Put(x)
		}
		if l.Len() != burst || l.HighWater() != burst {
			t.Fatalf("round %d: len %d high-water %d, want %d", round, l.Len(), l.HighWater(), burst)
		}
	}
	// Objects of one slab are adjacent: one allocation, not one each.
	var s List[obj]
	a, _ := s.Get()
	b, _ := s.Get()
	if d := reflect.ValueOf(b).Pointer() - reflect.ValueOf(a).Pointer(); d != reflect.TypeOf(obj{}).Size() {
		t.Fatalf("consecutive fresh objects are %d bytes apart, want slab neighbours", d)
	}
}

// TestStackInflowBoundedByOwnHighWater: a list that receives more puts
// than it served gets — objects migrating in from another partition's
// pool — keeps no more than its own in-flight high-water, and banks no
// credit for them: its next burst raises the bound, not the surplus.
func TestStackInflowBoundedByOwnHighWater(t *testing.T) {
	var s Stack[int]
	for i := 0; i < 4; i++ {
		s.Pop()
	}
	for i := 0; i < 1000; i++ {
		s.Push(i)
	}
	if s.Len() != 4 || s.HighWater() != 4 {
		t.Fatalf("after inflow: len %d high-water %d, want 4 and 4", s.Len(), s.HighWater())
	}
	// A burst of 6 with 4 on hand: the in-flight count starts from zero,
	// not from the 996 surplus puts.
	for i := 0; i < 6; i++ {
		s.Pop()
	}
	if s.HighWater() != 6 {
		t.Fatalf("high-water %d after a burst of 6, want 6", s.HighWater())
	}
	for i := 0; i < 100; i++ {
		s.Push(i)
	}
	if s.Len() != 6 {
		t.Fatalf("len %d after the burst returned with inflow, want 6", s.Len())
	}
}

// TestDropReleasesEverything: after Drop a list holds no values, no
// slab remainder and no count.
func TestDropReleasesEverything(t *testing.T) {
	var l List[[16]byte]
	for i := 0; i < 10; i++ {
		x, _ := l.Get()
		l.Put(x)
	}
	l.Get()
	l.Drop()
	if !reflect.ValueOf(l).IsZero() {
		t.Fatalf("dropped list is not empty: len %d high-water %d", l.Len(), l.HighWater())
	}
}
