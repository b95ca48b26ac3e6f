// Package cliflags centralises the flag→RunSpec construction the four
// CLI drivers used to duplicate: every binary registers the same trunk
// flags (-ranks, -workers, -pool, -seed, -v) with per-binary defaults,
// and Spec() hands back the xsim.RunSpec they describe after one shared
// validation pass. The RunSpec then flows into the experiment configs
// whose defaults() methods fill everything else — the very same defaults
// path xsim.CampaignSpec.Normalize runs for the server's JSON body — so
// a flag-built campaign and a wire-built campaign can never disagree on
// a default.
package cliflags

import (
	"flag"
	"fmt"
	"log"

	"xsim"
)

// Options selects which trunk flags a binary registers and their
// defaults.
type Options struct {
	// Ranks is the -ranks default; 0 omits the flag (drivers whose
	// campaigns do not simulate an MPI world, like xsim-bitflip).
	Ranks int
	// RanksHelp overrides the -ranks help text.
	RanksHelp string
	// Workers is the -workers default; 0 omits the flag.
	Workers int
	// Seed is the -seed default.
	Seed int64
	// NoSeed omits -seed (single-run drivers that draw nothing random).
	NoSeed bool
	// NoPool omits -pool (drivers that run exactly one simulation).
	NoPool bool
}

// Flags holds the registered trunk flag values until Spec() is called.
type Flags struct {
	opt     Options
	ranks   int
	workers int
	pool    int
	seed    int64
	verbose bool
}

// Register installs the trunk flags on fs (call before fs.Parse).
func Register(fs *flag.FlagSet, opt Options) *Flags {
	f := &Flags{opt: opt}
	if opt.Ranks != 0 {
		help := opt.RanksHelp
		if help == "" {
			help = "simulated MPI ranks"
		}
		fs.IntVar(&f.ranks, "ranks", opt.Ranks, help)
	}
	if opt.Workers != 0 {
		fs.IntVar(&f.workers, "workers", opt.Workers, "engine partitions executing in parallel")
	}
	if !opt.NoPool {
		fs.IntVar(&f.pool, "pool", 0, "independent simulations in flight (0 = GOMAXPROCS/workers)")
	}
	if !opt.NoSeed {
		fs.Int64Var(&f.seed, "seed", opt.Seed, "random seed")
	}
	fs.BoolVar(&f.verbose, "v", false, "print simulator informational messages")
	return f
}

// Verbose reports whether -v was set.
func (f *Flags) Verbose() bool { return f.verbose }

// Logf returns log.Printf when -v was set, else nil (the RunSpec
// convention for discarding messages).
func (f *Flags) Logf() func(format string, args ...any) {
	if f.verbose {
		return log.Printf
	}
	return nil
}

// Spec validates the trunk flags and returns the RunSpec they describe.
// Experiment-specific defaults stay zero here: each driver config's
// defaults() method fills them, identically for flag-built and
// wire-built campaigns.
func (f *Flags) Spec() (xsim.RunSpec, error) {
	if f.ranks < 0 {
		return xsim.RunSpec{}, fmt.Errorf("-ranks must be non-negative, got %d", f.ranks)
	}
	if f.workers < 0 {
		return xsim.RunSpec{}, fmt.Errorf("-workers must be non-negative, got %d", f.workers)
	}
	if f.pool < 0 {
		return xsim.RunSpec{}, fmt.Errorf("-pool must be non-negative, got %d", f.pool)
	}
	return xsim.RunSpec{
		Ranks:   f.ranks,
		Workers: f.workers,
		Pool:    f.pool,
		Seed:    f.seed,
		Logf:    f.Logf(),
	}, nil
}
