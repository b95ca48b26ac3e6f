package mpi

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xsim/internal/vclock"
)

// TestErrorHandlerReentersMPI runs MPI from inside user error handlers
// while the failed operation is still on the stack: a failed Allreduce
// whose handler revokes, shrinks, agrees and runs an Allreduce on the
// shrunk communicator, and a failed Recv whose handler receives again.
// Closure processes reuse one set of step states per process, so the
// re-entered operations must find them idle and the failed outer
// operations must still return their own (nil) results.
func TestErrorHandlerReentersMPI(t *testing.T) {
	const n = 5
	const dead = 4
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, err := runWorldErr(t, n, workers, map[int]vclock.Time{dead: 0}, func(e *Env) {
				c := e.World()
				if e.Rank() == dead {
					e.Elapse(vclock.Hour) // the failure activates here
					return
				}
				spare := c.Dup() // a world-sized communicator for the receive stage

				var shrunk *Comm
				var agreed uint32
				var inner []float64
				c.SetUserErrorHandler(func(c *Comm, err error) {
					if shrunk != nil {
						return
					}
					if !c.Revoked() {
						c.Revoke()
					}
					s, serr := c.Shrink()
					if serr != nil {
						t.Errorf("rank %d: shrink in handler: %v", e.Rank(), serr)
						return
					}
					s.SetErrorHandler(ErrorsReturn)
					if agreed, serr = s.Agree(0xff0 | uint32(1<<e.Rank())); serr != nil {
						t.Errorf("rank %d: agree in handler: %v", e.Rank(), serr)
					}
					if inner, serr = s.Allreduce([]float64{float64(e.Rank() + 1)}, OpSum); serr != nil {
						t.Errorf("rank %d: allreduce in handler: %v", e.Rank(), serr)
					}
					shrunk = s
				})
				// Rank 0 detects the failure in the reduce; the others
				// learn of it through the revocation while waiting for
				// the broadcast.
				out, err := c.Allreduce([]float64{1, 2}, OpSum)
				if err == nil || out != nil {
					t.Errorf("rank %d: failed allreduce returned (%v, %v)", e.Rank(), out, err)
				}
				if shrunk == nil {
					t.Fatalf("rank %d: handler did not run", e.Rank())
				}
				if shrunk.Size() != n-1 || agreed != 0xff0 || len(inner) != 1 || inner[0] != 1+2+3+4 {
					t.Errorf("rank %d: in-handler results: size %d agree %#x allreduce %v",
						e.Rank(), shrunk.Size(), agreed, inner)
				}

				// A failed receive whose handler receives again.
				var got *Message
				spare.SetUserErrorHandler(func(c *Comm, err error) {
					var pf *ProcFailedError
					if !errors.As(err, &pf) || got != nil {
						return
					}
					m, rerr := c.Recv(1, 7)
					if rerr != nil {
						t.Errorf("rank %d: recv in handler: %v", e.Rank(), rerr)
						return
					}
					got = m
				})
				switch e.Rank() {
				case 0:
					msg, err := spare.Recv(dead, 5)
					if err == nil || msg != nil {
						t.Errorf("receive from the dead rank returned (%v, %v)", msg, err)
					}
					if got == nil || string(got.Data) != "again" || got.Src != 1 || got.Tag != 7 {
						t.Errorf("in-handler receive = %+v", got)
					}
				case 1:
					if err := spare.Send(0, 7, []byte("again")); err != nil {
						t.Errorf("send: %v", err)
					}
				}

				// The reused states keep working after both re-entries.
				sum, err := shrunk.Allreduce([]float64{1}, OpSum)
				if err != nil || sum[0] != n-1 {
					t.Errorf("rank %d: allreduce after re-entry = (%v, %v)", e.Rank(), sum, err)
				}
				if err := shrunk.Barrier(); err != nil {
					t.Errorf("rank %d: barrier after re-entry: %v", e.Rank(), err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 1 || res.Completed != n-1 {
				t.Fatalf("completed/failed = %d/%d, want %d/1", res.Completed, res.Failed, n-1)
			}
		})
	}
}

// shrinkInHandlerProg steps a barrier in program mode; its error handler
// reacts to the failure with ULFM Shrink, which has no step form.
type shrinkInHandlerProg struct {
	armed bool
	cs    CollectiveState
}

func (p *shrinkInHandlerProg) Step(e *Env, wake any) (any, bool) {
	c := e.World()
	if !p.armed {
		p.armed = true
		c.SetUserErrorHandler(func(c *Comm, err error) {
			c.Revoke()
			c.Shrink()
		})
		p.cs.BeginBarrier()
	}
	done, park, _ := c.CollectiveStep(&p.cs)
	if !done {
		return park, false
	}
	e.Finalize()
	return nil, true
}

// TestProgErrorHandlerShrinkIsClosureOnly: in program mode the step
// forms handle the failure, and the one thing that cannot run is the
// closure-only ULFM Shrink the handler calls — it reaches Drive, which
// names the parked shrink traffic in a ClosureOnlyError.
func TestProgErrorHandlerShrinkIsClosureOnly(t *testing.T) {
	_, err := runProgWorldErr(t, 3, 1, map[int]vclock.Time{2: 0}, func(rank int) Prog {
		if rank == 2 {
			return noFinalizeProg{} // fails before its first step
		}
		return &shrinkInHandlerProg{}
	})
	if err == nil || !strings.Contains(err.Error(), "closure-mode-only") {
		t.Fatalf("err = %v, want the typed closure-only diagnostic", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("tag %d", tagShrinkReport)) {
		t.Fatalf("err = %v, want the parked shrink report named", err)
	}
}

// TestBlockingHasOneSite pins the single blocking site: outside tests,
// the MPI layer blocks a process (core.Ctx.Block) and raises
// ClosureOnlyError only in Env.Drive.
func TestBlockingHasOneSite(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	blocks, closureOnly := 0, 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		blocks += strings.Count(string(src), "ctx.Block(")
		closureOnly += strings.Count(string(src), "&ClosureOnlyError{")
	}
	if blocks != 1 || closureOnly != 1 {
		t.Fatalf("found %d Block calls and %d ClosureOnlyError sites, want 1 each (Env.Drive)", blocks, closureOnly)
	}
}
