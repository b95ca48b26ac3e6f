package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xsim"
	"xsim/internal/jobstore"
	"xsim/internal/service"
)

// serviceClients is the number of closed-loop clients (and connections).
const serviceClients = 2

// timedStore wraps the service's result store, timing every call.
type timedStore struct {
	jobstore.Store
	tr atomic.Pointer[tracer]

	mu         sync.Mutex
	gets, puts latencies
}

func (s *timedStore) Get(key string) ([]byte, bool, error) {
	tr := s.tr.Load()
	sp := tr.begin("store", "jobstore", "Get", nil)
	t0 := time.Now()
	data, ok, err := s.Store.Get(key)
	d := time.Since(t0)
	tr.end(sp)
	s.mu.Lock()
	s.gets.add(d)
	s.mu.Unlock()
	return data, ok, err
}

func (s *timedStore) Put(key string, data []byte) error {
	tr := s.tr.Load()
	sp := tr.begin("store", "jobstore", "Put", nil)
	t0 := time.Now()
	err := s.Store.Put(key, data)
	d := time.Since(t0)
	tr.end(sp)
	s.mu.Lock()
	s.puts.add(d)
	s.mu.Unlock()
	return err
}

// serviceSystem is one campaign service behind a loopback HTTP listener,
// plus the submission stream its clients send.
type serviceSystem struct {
	docs   []specDoc
	store  *timedStore
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	tr     atomic.Pointer[tracer]
}

func setupService(seed int64) (system, error) {
	s := &serviceSystem{docs: specStream(seed, streamLen), store: &timedStore{Store: jobstore.NewMem()}}
	s.svc = service.New(service.Config{Workers: 2, Store: s.store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Drain(context.Background())
		return nil, err
	}
	api := s.svc.Handler()
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Server-side span around the service's own handler, linked to
		// the client span that sent the request.
		if tr := s.tr.Load(); tr != nil {
			parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
			sp := tr.add(r.Header.Get("X-Bench-Trace"), "service", r.Method+" "+r.URL.Path, parent, time.Now())
			defer tr.end(sp)
		}
		api.ServeHTTP(w, r)
	})}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}}
	return s, nil
}

func (s *serviceSystem) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.served
	s.svc.Drain(ctx)
	s.client.CloseIdleConnections()
}

// submission is what one client observed for one document.
type submission struct {
	key       string
	hit       bool          // answered from the cache at submit time
	latency   time.Duration // POST → result body received
	queueWait time.Duration // job created → first progress event (leaders only)
	result    []byte
	runs      int
	runWall   time.Duration
	runWait   time.Duration
	retries   int
	err       error
}

func (s *serviceSystem) rep(tr *tracer) repResult {
	r := repResult{layers: values{}}
	s.tr.Store(tr)
	s.store.tr.Store(tr)
	root := tr.begin("rep", "bench", "service-mix", nil)
	defer tr.end(root)

	subs := make([]submission, len(s.docs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.docs) {
					return
				}
				subs[i] = s.submit(tr, root, i)
			}
		}()
	}
	wg.Wait()
	// Every served result for a key must equal the first one served.
	first := make(map[string][]byte)
	for i := range subs {
		sub := &subs[i]
		r.ops++
		if sub.err == nil {
			if prev, ok := first[sub.key]; !ok {
				first[sub.key] = sub.result
			} else if !bytes.Equal(prev, sub.result) {
				sub.err = fmt.Errorf("result differs from the first served for key %.12s", sub.key)
			}
		}
		if sub.err != nil {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("service-mix submission %d: %v", i, sub.err))
		}
	}
	r.wall = time.Since(start)

	// Outside the timed region: the first served result of every key
	// against an in-process run of its canonical spec.
	check := tr.begin("rep", "bench", "verify against in-process runs", root)
	refs, err := references(s.docs)
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
	for key, got := range first {
		if want, ok := refs[key]; ok && !bytes.Equal(got, want.outcome) {
			r.problems = append(r.problems, fmt.Sprintf("service-mix: served result for key %.12s differs from CampaignSpec.RunWith", key))
		}
	}
	tr.end(check)

	v := r.layers
	var queueWaits latencies
	runs, retries := 0, 0
	var runWall, runWait time.Duration
	for _, sub := range subs {
		if sub.err != nil {
			continue // counted as failed; a failure has no latency
		}
		r.lat.add(sub.latency)
		if sub.hit {
			r.hits.add(sub.latency)
		}
		if sub.queueWait > 0 {
			queueWaits.add(sub.queueWait)
		}
		runs += sub.runs
		retries += sub.retries
		runWall += sub.runWall
		runWait += sub.runWait
	}
	for key := range first {
		if ref, ok := refs[key]; ok {
			r.vpSimSec += ref.vpSimSec
			v["softerror.injections"] += float64(ref.injections)
		}
	}
	m := s.svc.Metrics()
	tr.set(root, v, "softerror.injections", v["softerror.injections"])
	tr.set(root, v, "service.cache_hit_ratio", ratio(float64(m.CacheHits), float64(m.Submitted)))
	tr.set(root, v, "service.dedup_joins", float64(m.DedupJoins))
	tr.set(root, v, "service.sim_runs", float64(m.SimRuns))
	tr.set(root, v, "service.queue_wait_ms", queueWaits.p50(1e3))
	tr.set(root, v, "runner.runs", float64(runs))
	tr.set(root, v, "runner.run_wall_s", runWall.Seconds())
	tr.set(root, v, "runner.queue_wait_s", runWait.Seconds())
	tr.set(root, v, "runner.retries", float64(retries))
	s.store.mu.Lock()
	tr.set(root, v, "jobstore.get_us", s.store.gets.p50(1e6))
	tr.set(root, v, "jobstore.put_us", s.store.puts.p50(1e6))
	s.store.mu.Unlock()
	if tr != nil {
		s.timeWire(tr, root, v)
	}
	return r
}

// submit sends one document and follows it to its result: POST the spec,
// stream its events to the terminal line, then GET the result.
func (s *serviceSystem) submit(tr *tracer, root *span, i int) submission {
	trace := fmt.Sprintf("req:%d", i)
	var sub submission
	t0 := time.Now()
	call := func(method, path string, body []byte) (*http.Response, error) {
		sp := tr.begin(trace, "http", method+" "+path, root)
		defer tr.end(sp)
		req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("X-Bench-Trace", trace)
		req.Header.Set("X-Bench-Span", strconv.FormatInt(sp.id(), 10))
		resp, err := s.client.Do(req)
		if err == nil && resp.StatusCode/100 != 2 {
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
		}
		return resp, err
	}

	resp, err := call("POST", "/v1/campaigns", s.docs[i].Body)
	if err != nil {
		sub.err = err
		return sub
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		sub.err = fmt.Errorf("decoding job status: %w", err)
		return sub
	}
	sub.key = st.Key
	sub.hit = st.State == service.StateCompleted

	resp, err = call("GET", "/v1/campaigns/"+st.ID+"/events", nil)
	if err != nil {
		sub.err = err
		return sub
	}
	final, err := s.follow(resp.Body, st.Created, &sub)
	resp.Body.Close()
	if err == nil && final != service.StateCompleted {
		err = fmt.Errorf("job %s ended %s", st.ID, final)
	}
	if err != nil {
		sub.err = err
		return sub
	}

	resp, err = call("GET", "/v1/campaigns/"+st.ID+"/result", nil)
	if err != nil {
		sub.err = err
		return sub
	}
	sub.result, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	sub.latency = time.Since(t0)
	sub.err = err
	sub.result = bytes.TrimSuffix(sub.result, []byte("\n"))
	return sub
}

// follow reads a job's NDJSON event stream to its terminal line,
// accounting the pool's progress events, and returns the final state.
func (s *serviceSystem) follow(body io.Reader, created time.Time, sub *submission) (string, error) {
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		var ev struct {
			Event string              `json:"event"`
			State string              `json:"state"`
			Data  *xsim.ProgressEvent `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("decoding event: %w", err)
		}
		switch ev.Event {
		case "progress":
			if sub.queueWait == 0 {
				sub.queueWait = time.Since(created)
			}
			switch ev.Data.State {
			case "completed":
				sub.runs++
				sub.runWall += time.Duration(ev.Data.ElapsedNS)
				sub.runWait += time.Duration(ev.Data.WaitNS)
			case "retrying":
				sub.retries++
			}
		case "done":
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("event stream ended before the terminal event")
}

// timeWire times the benchmark's own calls into the wire layer for every
// document of the stream.
func (s *serviceSystem) timeWire(tr *tracer, root *span, v values) {
	var decode, canonical, cacheKey latencies
	wire := tr.begin("wire", "bench", "wire timing", root)
	for i, d := range s.docs {
		trace := fmt.Sprintf("wire:%d", i)
		timed := func(name string, l *latencies, f func() error) {
			sp := tr.begin(trace, "wire", name, wire)
			t0 := time.Now()
			err := f()
			l.add(time.Since(t0))
			tr.end(sp)
			if err != nil {
				panic(err) // the stream's own documents are valid
			}
		}
		var spec *xsim.CampaignSpec
		timed("DecodeCampaignSpec", &decode, func() (err error) {
			spec, err = xsim.DecodeCampaignSpec(d.Body)
			return err
		})
		timed("Canonical", &canonical, func() error { _, err := spec.Canonical(); return err })
		timed("CacheKey", &cacheKey, func() error { _, err := spec.CacheKey(); return err })
	}
	tr.end(wire)
	tr.set(wire, v, "wire.decode_us", decode.p50(1e6))
	tr.set(wire, v, "wire.canonical_us", canonical.p50(1e6))
	tr.set(wire, v, "wire.cache_key_us", cacheKey.p50(1e6))
}

// reference is an in-process run of one canonical spec.
type reference struct {
	outcome    []byte
	vpSimSec   float64
	injections int
}

var (
	refMu    sync.Mutex
	refCache = map[string]reference{}
)

// references runs every distinct spec of the stream in process, once per
// benchmark process, keyed by cache key.
func references(docs []specDoc) (map[string]reference, error) {
	refMu.Lock()
	defer refMu.Unlock()
	var errs []error
	for _, d := range docs {
		spec, err := xsim.DecodeCampaignSpec(d.Body)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		key, err := spec.CacheKey()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if _, ok := refCache[key]; ok {
			continue
		}
		canon, _ := spec.Canonical()
		cs, err := xsim.DecodeCampaignSpec(canon)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out, err := cs.RunWith(context.Background(), xsim.RunOptions{})
		if err != nil {
			errs = append(errs, fmt.Errorf("reference run of %.12s: %w", key, err))
			continue
		}
		data, err := out.Canonical()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		ref := reference{outcome: data, vpSimSec: float64(cs.Ranks) * xsim.Duration(out.SimTimeNS).Seconds()}
		if out.TableI != nil {
			ref.injections = out.TableI.Injections
		}
		refCache[key] = ref
	}
	return refCache, errors.Join(errs...)
}
