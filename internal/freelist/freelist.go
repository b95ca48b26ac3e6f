// Package freelist holds the run-lifetime free lists behind the engine's
// pooled events and the MPI data plane's pooled objects.
//
// A list lives for one simulation run and is dropped when the run
// returns. It has no size constant: it keeps every returned object up to
// the high-water of its own in-flight count (gets minus puts), so the
// steady state after a burst reuses the burst's memory instead of handing
// it to the garbage collector and allocating it again. The bound matters
// when objects migrate between partitions — each partition owns its lists
// and objects emitted by one partition are recycled by another. A
// partition that only receives (a linear gather into rank 0 at two
// workers) sees more puts than gets; its in-flight count saturates at
// zero, so its lists stay within the largest set it ever had in flight
// itself and the surplus falls to the garbage collector.
//
// Lists are not synchronised: each is touched by one execution context
// at a time (a partition's worker or the VP it is running).
package freelist

// SlabSize is the number of objects a List allocates together when it
// runs dry: one make instead of SlabSize news.
const SlabSize = 64

// Stack is a free list of values (payload buffers, pointers to pooled
// objects) bounded by the high-water of its own in-flight count. The
// zero value is empty and ready.
type Stack[E any] struct {
	items []E
	// out counts gets not yet matched by puts, saturating at zero so a
	// pool that receives another pool's objects banks no credit; hi is
	// its high-water and the bound on len(items).
	out, hi int
}

// Pop takes a value off the list; ok is false when the list is empty.
// Either way the value counts as in flight until the matching Push.
func (s *Stack[E]) Pop() (e E, ok bool) {
	s.out++
	if s.out > s.hi {
		s.hi = s.out
	}
	n := len(s.items) - 1
	if n < 0 {
		return e, false
	}
	e = s.items[n]
	var zero E
	s.items[n] = zero
	s.items = s.items[:n]
	return e, true
}

// Push returns a value to the list, or drops it to the garbage collector
// when the list already holds its in-flight high-water.
func (s *Stack[E]) Push(e E) {
	if s.out > 0 {
		s.out--
	}
	if len(s.items) < s.hi {
		s.items = append(s.items, e)
	}
}

// Len returns the number of free values held.
func (s *Stack[E]) Len() int { return len(s.items) }

// HighWater returns the in-flight high-water that bounds the list.
func (s *Stack[E]) HighWater() int { return s.hi }

// Drop releases the list's storage and resets its count: the end of a
// run, after which the list holds nothing.
func (s *Stack[E]) Drop() { *s = Stack[E]{} }

// List is a Stack of *T whose new objects come from slabs of SlabSize,
// allocated one at a time as the list runs dry. Objects come back
// zeroed, so a Get hands out a zero T either way.
type List[T any] struct {
	Stack[*T]
	// slab is the unused remainder of the last slab.
	slab []T
}

// Get returns a zeroed object: a returned one from the list, or a fresh
// one (fresh == true, a pool miss) from the current slab.
func (l *List[T]) Get() (x *T, fresh bool) {
	if x, ok := l.Pop(); ok {
		return x, false
	}
	if len(l.slab) == 0 {
		l.slab = make([]T, SlabSize)
	}
	x = &l.slab[0]
	l.slab = l.slab[1:]
	return x, true
}

// Drop releases the list and its current slab.
func (l *List[T]) Drop() { *l = List[T]{} }

// Put zeroes x and returns it to the list. The caller must hold the only
// reference.
func (l *List[T]) Put(x *T) {
	var zero T
	*x = zero
	l.Push(x)
}
