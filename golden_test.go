package xsim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"xsim/internal/fsmodel"
)

var updateGolden = flag.Bool("update", false, "rewrite the checked-in golden files from the current code")

// goldenTablesFile pins the rows of small-scale Table II grids and the
// checkpoint-I/O ablation. It was generated before closure mode was
// rebuilt on the step state machines; the drivers' program mode and the
// closure reference must both reproduce it byte for byte.
const goldenTablesFile = "testdata/golden_tables.json"

// goldenTables runs every pinned experiment in program mode, or with
// closures as the reference.
func goldenTables(t *testing.T, closures bool) []byte {
	t.Helper()
	out := map[string]any{}
	tab, err := RunTableII(TableIIConfig{RunSpec: RunSpec{Ranks: 64, Seed: 133, closures: closures}})
	if err != nil {
		t.Fatal(err)
	}
	out["table2"] = tab.Rows
	// Charged checkpoint reads on restart: the flat PFS restore path.
	tab, err = RunTableII(TableIIConfig{
		RunSpec:    RunSpec{Ranks: 27, Seed: 5, closures: closures},
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
		RunSpec:    RunSpec{Ranks: 64, Seed: 133, closures: closures},
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

// TestGoldenTables requires the program (default) and closure runs of
// the pinned experiments to produce exactly the checked-in rows. Run
// with -update to regenerate the file from the closure reference (only
// for an intentional model change).
func TestGoldenTables(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTablesFile, goldenTables(t, true), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenTablesFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, closures := range []bool{false, true} {
		if got := goldenTables(t, closures); !bytes.Equal(got, want) {
			t.Fatalf("closures=%v rows differ from %s:\n%s", closures, goldenTablesFile, got)
		}
	}
}

// goldenCampaignsFile pins, for every spec under testdata/campaigns (one
// per wire kind), the spec's CacheKey and the SHA-256 of its canonical
// outcome: the key the campaign service files a result under and the
// bytes it serves for it.
const goldenCampaignsFile = "testdata/golden_campaigns.json"

// campaignPin is one spec's entry in goldenCampaignsFile.
type campaignPin struct {
	CacheKey      string `json:"cache_key"`
	OutcomeSHA256 string `json:"outcome_sha256"`
}

// goldenCampaigns decodes and runs every checked-in spec and returns its
// pins, keyed by file name, and the kinds the corpus covers.
func goldenCampaigns(t *testing.T) (map[string]campaignPin, map[CampaignKind]bool) {
	t.Helper()
	paths, err := filepath.Glob("testdata/campaigns/*.json")
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]campaignPin{}
	kinds := map[CampaignKind]bool{}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := DecodeCampaignSpec(raw)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		key, err := spec.CacheKey()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out, err := spec.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		canon, err := out.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		sum := sha256.Sum256(canon)
		pins[filepath.Base(path)] = campaignPin{CacheKey: key, OutcomeSHA256: hex.EncodeToString(sum[:])}
		kinds[spec.Kind] = true
	}
	return pins, kinds
}

// TestGoldenCampaigns requires every checked-in campaign spec to keep its
// cache key and to produce exactly its pinned canonical outcome. Run with
// -update to regenerate the pins (only for an intentional model or wire
// change).
func TestGoldenCampaigns(t *testing.T) {
	got, kinds := goldenCampaigns(t)
	for _, k := range campaignKinds {
		if !kinds[k] {
			t.Errorf("no spec of kind %q under testdata/campaigns", k)
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCampaignsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenCampaignsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]campaignPin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: pinned in %s but missing", name, goldenCampaignsFile)
		} else if g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: not pinned in %s", name, goldenCampaignsFile)
		}
	}
}
