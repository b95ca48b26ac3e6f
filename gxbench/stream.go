package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"

	"xsim"
)

// The service-mix stream: streamLen submissions, of which streamOriginals
// are distinct campaigns (twelve shapes of each kind) and the rest respell
// one of them. Submit→result latencies split into sub-millisecond cache
// hits and 2–500 ms simulations; the all-submissions median is only
// steady where it falls well inside the hits, so about four in five
// submissions are respellings rather than the half one might expect.
// With half, the median sits on the gap between the two and swings
// tenfold between seeds; with 70 % it sits in the hits' noisy tail.
const (
	streamLen       = 400
	streamOriginals = 72
)

// specDoc is one submission of the service-mix stream.
type specDoc struct {
	// Body is the wire document as submitted.
	Body []byte
	// Original is the stream index of the spec this document spells
	// (its own index for an original).
	Original int
}

// respelled reports whether the document resubmits an earlier spec.
func (d specDoc) respelled(i int) bool { return d.Original != i }

// specStream generates the seeded submission stream. The originals are a
// fixed set of campaigns (every kind at several sizes, 64–192 ranks,
// Pool=1), so every seed asks for the same simulation work; the seed
// shuffles their order, places the respellings, picks what they respell
// and how. A respelling shuffles the keys, makes defaults explicit (half
// the time) and changes the execution knobs, so it shares its original's
// cache key.
func specStream(seed int64, n int) []specDoc {
	rng := rand.New(rand.NewSource(seed))
	originals := min(streamOriginals, n)
	shapes := rng.Perm(originals)
	isRespell := make([]bool, n)
	for _, p := range rng.Perm(n - 2)[:n-originals] {
		isRespell[2+p] = true // the first two submissions are originals
	}
	var docs []specDoc
	var orig []int
	for i := 0; i < n; i++ {
		if !isRespell[i] {
			body, err := json.Marshal(originalSpec(shapes[len(orig)]))
			if err != nil {
				panic(err) // plain scalars and slices always encode
			}
			docs = append(docs, specDoc{Body: body, Original: i})
			orig = append(orig, i)
			continue
		}
		// Favour recent originals now and then, so some respellings
		// arrive while the original is still running and join it
		// instead of hitting the cache.
		pick := orig[rng.Intn(len(orig))]
		if rng.Intn(4) == 0 {
			pick = orig[len(orig)-1-rng.Intn(min(3, len(orig)))]
		}
		docs = append(docs, specDoc{Body: respell(docs[pick].Body, rng), Original: pick})
	}
	return docs
}

// originalSpec builds the campaign of one shape: shape mod 6 picks the
// kind, and the quotient cycles through the world sizes and iteration
// counts.
func originalSpec(shape int) *xsim.CampaignSpec {
	size := shape / 6
	ranks := []int{64, 96, 128, 144, 192}[size%5]
	iters := []int{16, 24, 32}[size%3]
	e1 := float64(iters) * 5.25 // ≈ simulated seconds of the heat run
	s := &xsim.CampaignSpec{
		Version: xsim.SpecVersion,
		Ranks:   ranks,
		Seed:    int64(shape),
		Pool:    1,
	}
	switch shape % 6 {
	case 0:
		s.Kind = xsim.KindTableI
		s.Ranks = 0
		s.TableI = &xsim.TableIParams{Victims: 10 * (1 + size%3), MaxInjections: 100}
	case 1:
		s.Kind = xsim.KindTableII
		s.TableII = &xsim.TableIIParams{
			Iterations:  iters,
			Intervals:   []int{iters / 2, iters / 4},
			MTTFSeconds: []float64{e1 * 0.75},
		}
	case 2:
		s.Kind = xsim.KindIntervalSweep
		s.Sweep = &xsim.IntervalSweepParams{
			Iterations:  iters,
			Intervals:   []int{iters / 2, iters / 4},
			MTTFSeconds: e1 / 2,
			Seeds:       []int64{s.Seed, s.Seed + 1},
		}
	case 3:
		s.Kind = xsim.KindFirstImpressions
		s.Phases = &xsim.FirstImpressionsParams{Iterations: iters, Interval: iters / 4, Trials: 2 + size%3}
	case 4:
		s.Kind = xsim.KindCrossover
		s.Ranks = []int{96, 144, 192}[size%3]
		s.Crossover = &xsim.CrossoverParams{
			Degrees:     []int{2, 3},
			MTTFSeconds: []float64{200, 800},
			Iterations:  iters / 2,
		}
	case 5:
		s.Kind = xsim.KindIOAblation
		s.IOAblation = &xsim.IOAblationParams{
			Iterations:  iters,
			Intervals:   []int{iters / 2},
			MTTFSeconds: []float64{e1},
		}
	}
	return s
}

// respell rewrites a spec document without changing what it describes:
// defaults made explicit (half the time), other execution knobs
// (workers, pool) and object keys in shuffled order.
func respell(body []byte, rng *rand.Rand) []byte {
	spec, err := xsim.DecodeCampaignSpec(body)
	if err != nil {
		panic(err) // the stream's own documents always decode
	}
	if rng.Intn(2) == 0 {
		spec.Normalize()
	}
	spec.Workers = rng.Intn(3)
	spec.Pool = rng.Intn(3)
	raw, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	writeShuffled(&buf, doc, rng)
	return buf.Bytes()
}

// writeShuffled encodes a decoded JSON value with every object's keys in
// a random order.
func writeShuffled(buf *bytes.Buffer, v any, rng *rand.Rand) {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, _ := json.Marshal(k)
			buf.Write(kb)
			buf.WriteByte(':')
			writeShuffled(buf, x[k], rng)
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			writeShuffled(buf, e, rng)
		}
		buf.WriteByte(']')
	default:
		b, _ := json.Marshal(x)
		buf.Write(b)
	}
}
