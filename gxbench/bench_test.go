package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"xsim"
)

func TestSpecStreamDeterministicPerSeed(t *testing.T) {
	a, b := specStream(7, streamLen), specStream(7, streamLen)
	if len(a) != streamLen || len(b) != streamLen {
		t.Fatalf("stream lengths %d, %d, want %d", len(a), len(b), streamLen)
	}
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) || a[i].Original != b[i].Original {
			t.Fatalf("seed 7 submission %d differs between two generations", i)
		}
	}
	c := specStream(8, streamLen)
	same := 0
	for i := range a {
		if bytes.Equal(a[i].Body, c[i].Body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 generate the same stream")
	}
}

func TestRespelledSpecsShareCacheKey(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		docs := specStream(seed, streamLen)
		kinds := map[string]bool{}
		respelled := 0
		for i, d := range docs {
			key := cacheKey(t, d.Body)
			var probe struct{ Kind string }
			json.Unmarshal(d.Body, &probe)
			kinds[probe.Kind] = true
			if !d.respelled(i) {
				continue
			}
			respelled++
			orig := docs[d.Original]
			if orig.respelled(d.Original) {
				t.Fatalf("seed %d submission %d respells a respelling", seed, i)
			}
			if bytes.Equal(d.Body, orig.Body) {
				t.Errorf("seed %d submission %d is a verbatim copy of %d", seed, i, d.Original)
			}
			if want := cacheKey(t, orig.Body); key != want {
				t.Errorf("seed %d submission %d: cache key %.12s, original %d has %.12s\n%s\n%s",
					seed, i, key, d.Original, want, d.Body, orig.Body)
			}
		}
		if respelled != streamLen-streamOriginals {
			t.Errorf("seed %d: %d of %d submissions respelled, want %d", seed, respelled, streamLen, streamLen-streamOriginals)
		}
		if len(kinds) != 6 {
			t.Errorf("seed %d: stream covers kinds %v, want all six", seed, kinds)
		}
	}
}

func cacheKey(t *testing.T, body []byte) string {
	t.Helper()
	spec, err := xsim.DecodeCampaignSpec(body)
	if err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	key, err := spec.CacheKey()
	if err != nil {
		t.Fatalf("cache key of %s: %v", body, err)
	}
	return key
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range registry {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _, . and -", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %s registered twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Layer && m.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", m.Name)
		}
		if !m.Layer && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, %q (%s) here", i, b.Workloads[i], w.name, w.why)
		}
	}
	e2e := metricsOf(false)
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the registry %d", len(b.EndToEnd), len(e2e))
	}
	for i, m := range e2e {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, registry %+v", i, got, m)
		}
	}
	layer := metricsOf(true)
	if len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the registry %d", len(b.PerLayer), len(layer))
	}
	for i, m := range layer {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, registry %+v", i, got, m)
		}
	}
}

// fakeSystem stands in for a workload so the result assembly can be
// checked without simulating anything.
type fakeSystem struct{}

func (fakeSystem) rep(tr *tracer) repResult {
	sp := tr.begin("rep", "bench", "fake", nil)
	defer tr.end(sp)
	return repResult{wall: 10 * time.Millisecond, ops: 2, vpSimSec: 1, lat: latencies{0.001, 0.002}, layers: values{}}
}

func (fakeSystem) close() {}

// TestPrintedMetricsMatchBenchmarkJSON runs the result assembly both ways
// and checks that the printed metrics are exactly those BENCHMARK.json
// lists: the end-to-end ones untraced, the per-layer ones traced.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	w := &workload{name: "fake", setup: func(int64) (system, error) { return fakeSystem{}, nil }}
	for _, traced := range []bool{false, true} {
		res, err := run(w, 1, time.Millisecond, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		if traced {
			for _, m := range b.PerLayer {
				want = append(want, m.Name)
			}
		} else {
			for _, m := range b.EndToEnd {
				want = append(want, m.Name)
			}
		}
		var got []string
		for name := range res.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("traced=%v: printed %v, BENCHMARK.json lists %v", traced, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("traced=%v: printed %v, BENCHMARK.json lists %v", traced, got, want)
			}
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("traced=%v: fake run reported %+v", traced, res)
		}
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	tr := newTracer()
	at := func(s float64) time.Time { return tr.epoch.Add(time.Duration(s * float64(time.Second))) }
	root := tr.add("t", "outer", "root", 0, at(0))
	a := tr.add("t", "inner", "a", root.ID, at(1))
	b := tr.add("t", "inner", "b", root.ID, at(2))
	tr.endAt(a, at(4))
	tr.endAt(b, at(5))
	tr.endAt(root, at(10))
	self := tr.selfTimes()
	if d := self["outer"] - 6; d > 1e-9 || d < -1e-9 {
		t.Errorf("outer self time %v, want 6 (10 s minus the 4 s its children cover)", self["outer"])
	}
	if d := self["inner"] - 6; d > 1e-9 || d < -1e-9 {
		t.Errorf("inner self time %v, want 6", self["inner"])
	}
}
