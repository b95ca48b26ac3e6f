package xsim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"xsim/internal/fsmodel"
)

var updateGolden = flag.Bool("update", false, "rewrite the checked-in golden files from the current code")

// goldenTablesFile pins the rows of small-scale Table II grids and the
// checkpoint-I/O ablation. It was generated before closure mode was
// rebuilt on the step state machines; both execution modes must
// reproduce it byte for byte.
const goldenTablesFile = "testdata/golden_tables.json"

// goldenTables runs every pinned experiment in one execution mode.
func goldenTables(t *testing.T, prog bool) []byte {
	t.Helper()
	out := map[string]any{}
	tab, err := RunTableII(TableIIConfig{RunSpec: RunSpec{Ranks: 64, Seed: 133, ProgMode: prog}})
	if err != nil {
		t.Fatal(err)
	}
	out["table2"] = tab.Rows
	// Charged checkpoint reads on restart: the flat PFS restore path.
	tab, err = RunTableII(TableIIConfig{
		RunSpec:    RunSpec{Ranks: 27, Seed: 5, ProgMode: prog},
		Iterations: 300,
		Intervals:  []int{100, 50},
		MTTFs:      []Duration{400 * Second},
		FSModel:    fsmodel.PaperPFS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	out["table2-pfs"] = tab.Rows
	// Tiered staging and incremental chains: the drain-gated restore path.
	abl, err := RunCheckpointIOAblation(CheckpointIOAblationConfig{
		RunSpec:    RunSpec{Ranks: 64, Seed: 133, ProgMode: prog},
		Iterations: 60,
		Intervals:  []int{20},
		MTTFs:      []Duration{150 * Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	out["io-ablation"] = abl.Rows
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestGoldenTables requires the closure and program runs of the pinned
// experiments to produce exactly the checked-in rows. Run with -update
// to regenerate the file (only for an intentional model change).
func TestGoldenTables(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTablesFile, goldenTables(t, false), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenTablesFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []bool{false, true} {
		if got := goldenTables(t, prog); !bytes.Equal(got, want) {
			t.Fatalf("ProgMode=%v rows differ from %s:\n%s", prog, goldenTablesFile, got)
		}
	}
}
