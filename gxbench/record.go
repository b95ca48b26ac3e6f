package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// goldenMode makes the workloads record their outputs as the golden
// outputs instead of checking against them.
var goldenMode bool

// goldenDir holds the golden outputs, relative to the checkout root the
// benchmark runs from.
const goldenDir = "gxbench/golden"

// loadGolden reads the golden outputs of a workload into v; ok is false
// when none are recorded.
func loadGolden(workload string, v any) (ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(goldenDir, workload+".json"))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("golden %s: %w", workload, err)
	}
	return true, nil
}

// saveGolden records v as a workload's golden outputs.
func saveGolden(workload string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(goldenDir, workload+".json"), append(data, '\n'), 0o644)
}

// buildRevision returns the VCS revision stamped into the binary, or
// "unknown" when it was built outside a git checkout.
func buildRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources, module files and goldens under
// root (skipping dot-directories such as build output), identifying the
// code a result was measured on even where no commit is known.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.HasPrefix(path, goldenDir)) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkDeterminism compares every deterministic counter across this
// run's repetitions and against the counters an earlier run of the same
// workload, seed and source logged under out. A counter that moves is
// reported as a determinism bug.
func checkDeterminism(workload string, seed int64, source string, reps []repResult, out string) []string {
	var problems []string
	first := detCounters(reps[0])
	for i, r := range reps[1:] {
		for name, v := range detCounters(r) {
			if v != first[name] {
				problems = append(problems, fmt.Sprintf("determinism: %s is %v in repetition %d but %v in repetition 1", name, v, i+2, first[name]))
			}
		}
	}
	type logEntry struct {
		Source   string `json:"source_sha256"`
		Counters values `json:"counters"`
	}
	path := filepath.Join(out, fmt.Sprintf("det-%s-seed%d.json", workload, seed))
	var prev logEntry
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &prev) == nil && prev.Source == source {
		for name, v := range first {
			if old, ok := prev.Counters[name]; ok && old != v {
				problems = append(problems, fmt.Sprintf("determinism: %s is %v but an earlier run of seed %d logged %v", name, v, seed, old))
			}
		}
		return problems
	}
	data, _ := json.MarshalIndent(logEntry{source, first}, "", " ")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		problems = append(problems, fmt.Sprintf("determinism log: %v", err))
	}
	return problems
}

// detCounters picks the deterministic counters out of a repetition.
func detCounters(r repResult) values {
	out := values{}
	for _, m := range registry {
		if v, ok := r.layers[m.Name]; ok && m.Det {
			out[m.Name] = v
		}
	}
	return out
}
