package mpitest

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the checked-in golden files from the current code")

// goldenDigestsFile pins one Outcome digest per seed. It was generated
// before closure mode was rebuilt on the step state machines, so it is
// the reference both execution modes answer to — not each other.
const goldenDigestsFile = "testdata/outcome_digests.txt"

// goldenSeeds is the seed range the golden file covers.
const goldenSeeds = 500

// outcomeDigest hashes every field of an Outcome (times, terminations,
// observation digests, errors, MPI metrics, failure metrics).
func outcomeDigest(t *testing.T, o *Outcome) string {
	t.Helper()
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

func readGoldenDigests(t *testing.T) map[int]string {
	t.Helper()
	f, err := os.Open(goldenDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[int]string, goldenSeeds)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seed, digest, ok := strings.Cut(line, " ")
		n, err := strconv.Atoi(seed)
		if !ok || err != nil {
			t.Fatalf("%s: malformed line %q", goldenDigestsFile, line)
		}
		out[n] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeGoldenDigests(t *testing.T) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# seed sha256(json(Outcome))[:16] for Generate(seed).Run(1)\n")
	for seed := 0; seed < goldenSeeds; seed++ {
		o, err := Generate(int64(seed)).Run(1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&b, "%d %s\n", seed, outcomeDigest(t, o))
	}
	if err := os.MkdirAll(filepath.Dir(goldenDigestsFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenDigestsFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenOutcomeDigests runs every seeded workload in closure mode and
// in program mode at Workers 1, 2 and 4 and requires each Outcome to hash
// to the checked-in digest for its seed. Run with -update to regenerate
// the file (only for an intentional model change).
func TestGoldenOutcomeDigests(t *testing.T) {
	if *update {
		writeGoldenDigests(t)
	}
	golden := readGoldenDigests(t)
	seeds := seedCount(t)
	if seeds > goldenSeeds {
		seeds = goldenSeeds
	}
	const shard = 25
	for lo := 0; lo < seeds; lo += shard {
		lo := lo
		hi := lo + shard
		if hi > seeds {
			hi = seeds
		}
		t.Run(fmt.Sprintf("seeds%d-%d", lo, hi-1), func(t *testing.T) {
			t.Parallel()
			for seed := lo; seed < hi; seed++ {
				want, ok := golden[seed]
				if !ok {
					t.Fatalf("seed %d missing from %s", seed, goldenDigestsFile)
				}
				w := Generate(int64(seed))
				for _, workers := range []int{1, 2, 4} {
					for _, mode := range []struct {
						name string
						run  func(int) (*Outcome, error)
					}{{"closure", w.Run}, {"prog", w.RunProg}} {
						o, err := mode.run(workers)
						if err != nil {
							t.Fatalf("%s: %s workers=%d: %v", w, mode.name, workers, err)
						}
						if got := outcomeDigest(t, o); got != want {
							t.Fatalf("%s: %s workers=%d digest %s, golden %s", w, mode.name, workers, got, want)
						}
					}
				}
			}
		})
	}
}
