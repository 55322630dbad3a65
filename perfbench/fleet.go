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
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/store"
)

const (
	fleetBackends = 2
	// backendCache is each backend's memory LRU size, smaller than the
	// hot set, so hits come from both the LRU and the store.
	backendCache = 2
	// fleetChunk is how many requests run between two host speed
	// samples.
	fleetChunk = 8
	// layeredEvery spaces the traced requests that also repeat the call
	// at the owner, which triples a hit's cost in the traced replay.
	layeredEvery = 4
	// settleTimeout bounds the wait for asynchronous replication.
	settleTimeout = 30 * time.Second
)

// fleetBench drives two pdfd backends behind a coordinator over
// loopback HTTP.
type fleetBench struct {
	reqs []fleetReq
	// tracedReqs is reqs with fresh seeds for the new jobs, so that the
	// traced replay's new jobs miss the caches too.
	tracedReqs []fleetReq
	hot        []engine.Spec
	dir        string
	pass       int

	backs  []*backendProc
	coord  *cluster.Coordinator
	front  *server
	client *http.Client
	refs   refCache

	// expected holds each hot spec's result as computed cold in set-up;
	// every later hit must return the same tests.
	expected []*engine.Result
	// installs counts replica installs seen so far; done counts jobs
	// the coordinator accepted and that finished, each of which the
	// coordinator replicates once.
	installs float64
	done     int
}

// backendProc is one in-process pdfd backend with a durable store and
// a journal in its own directory.
type backendProc struct {
	name string
	e    *engine.Engine
	st   *store.Store
	jl   *journal.Log
	srv  *server
}

// server is an http.Server on a loopback listener.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
}

func newFleetReplay(seed int64, seconds int, dir string) *fleetBench {
	hot := hotSet()
	n := jobCount(fleetRate, seconds)
	return &fleetBench{reqs: fleetReqs(seed, n, hot, 0), tracedReqs: fleetReqs(seed, n, hot, 1), hot: hot, dir: dir}
}

func (b *fleetBench) setUp() (string, error) {
	b.pass++
	dir := filepath.Join(b.dir, fmt.Sprintf("pass%d", b.pass))
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	b.refs = refCache{}
	b.installs, b.done = 0, 0
	var confs []cluster.BackendConf
	for i := 0; i < fleetBackends; i++ {
		bp, err := startBackend(fmt.Sprintf("b%d", i), filepath.Join(dir, fmt.Sprintf("b%d", i)))
		if err != nil {
			return "", err
		}
		b.backs = append(b.backs, bp)
		confs = append(confs, cluster.BackendConf{Name: bp.name, URL: bp.srv.url})
	}
	coord, err := cluster.New(cluster.Config{Backends: confs, ReplicationFactor: fleetBackends})
	if err != nil {
		return "", err
	}
	b.coord = coord
	if b.front, err = serve(cluster.NewServer(coord)); err != nil {
		return "", err
	}

	// The hot set, cold, through the fleet.
	cold := b.runAll(b.hot)
	b.expected = make([]*engine.Result, len(b.hot))
	var digest strings.Builder
	for i, o := range cold {
		if o.err == nil && o.view.CacheHit {
			o.err = errors.New("cold set-up job was a cache hit")
		}
		if o.err == nil {
			o.err = checkResult(b.refs, b.hot[i], o.view)
		}
		if o.err != nil {
			return "", fmt.Errorf("hot spec %s: %w", specKey(b.hot[i]), o.err)
		}
		b.expected[i] = o.view.Result
		digest.WriteString(strings.Join(o.view.Result.Tests, "\n"))
	}
	// Every result lands on both backends: one local write and one
	// replica install each.
	if err := b.settle(); err != nil {
		return "", err
	}
	for _, bp := range b.backs {
		if n := bp.st.Len(); n != len(b.hot) {
			return "", fmt.Errorf("backend %s stores %d results, want %d", bp.name, n, len(b.hot))
		}
	}
	// Warm pass: every hot spec once more, now a hit.
	for i, o := range b.runAll(b.hot) {
		if err := b.checkHit(fleetReq{Hot: i, Spec: b.hot[i]}, o); err != nil {
			return "", fmt.Errorf("warm pass: %w", err)
		}
	}
	if err := b.settle(); err != nil {
		return "", err
	}
	return digest.String(), nil
}

func startBackend(name, dir string) (*backendProc, error) {
	st, err := store.Open(store.Config{Dir: filepath.Join(dir, "store")})
	if err != nil {
		return nil, err
	}
	jl, _, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		st.Close()
		return nil, err
	}
	e := engine.New(engine.Config{Workers: 1, SimWorkers: 1, CacheSize: backendCache, Store: st, Journal: jl})
	srv, err := serve(engine.NewServer(e))
	if err != nil {
		e.Close()
		jl.Close()
		st.Close()
		return nil, err
	}
	return &backendProc{name: name, e: e, st: st, jl: jl, srv: srv}, nil
}

func (b *fleetBench) tearDown() {
	if b.front != nil {
		b.front.close()
		b.front = nil
	}
	if b.coord != nil {
		b.coord.Close()
		b.coord = nil
	}
	for _, bp := range b.backs {
		bp.srv.close()
		bp.e.Close()
		bp.jl.Close()
		bp.st.Close()
	}
	b.backs = nil
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	os.RemoveAll(filepath.Join(b.dir, fmt.Sprintf("pass%d", b.pass)))
}

// runAll sends specs through the coordinator and returns the outcomes
// in spec order.
func (b *fleetBench) runAll(specs []engine.Spec) []outcome {
	outs := make([]outcome, len(specs))
	b.send(specs, outs)
	return outs
}

// send is the closed loop of the one client: it sends specs through the
// coordinator one after another, recording each outcome in outs.
func (b *fleetBench) send(specs []engine.Spec, outs []outcome) {
	for i := range specs {
		t := time.Now()
		v, err := b.submitWait(b.front.url, specs[i])
		raw := time.Since(t).Seconds()
		outs[i] = outcome{lat: raw, raw: raw, view: v, err: err}
	}
	b.done += len(specs)
}

// submitWait posts spec to base's /v1/jobs and long-polls the job until
// it is terminal.
func (b *fleetBench) submitWait(base string, spec engine.Spec) (engine.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return engine.JobView{}, err
	}
	var v engine.JobView
	if err := b.call(http.MethodPost, base+"/v1/jobs", body, http.StatusAccepted, &v); err != nil {
		return v, err
	}
	for !v.Status.Terminal() {
		if err := b.call(http.MethodGet, base+"/v1/jobs/"+v.ID+"?wait=60s", nil, http.StatusOK, &v); err != nil {
			return v, err
		}
	}
	if v.Status != engine.StatusDone {
		return v, fmt.Errorf("%s: job %s %s: %s", specKey(spec), v.ID, v.Status, v.Error)
	}
	return v, nil
}

func (b *fleetBench) call(method, url string, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// isHit classifies a job as a cache hit by what the engine reported.
func isHit(o outcome) bool { return o.view.CacheHit }

// checkHit checks a repeated hot spec: a cache hit whose tests are
// byte-identical to the set-up result.
func (b *fleetBench) checkHit(r fleetReq, o outcome) error {
	switch {
	case o.err != nil:
		return o.err
	case !o.view.CacheHit:
		return fmt.Errorf("%s: hot spec missed the cache", specKey(r.Spec))
	case !slices.Equal(o.view.Result.Tests, b.expected[r.Hot].Tests):
		return fmt.Errorf("%s: hit tests differ from the set-up result", specKey(r.Spec))
	}
	return nil
}

// settle waits until the coordinator has installed a replica of every
// finished job, so no replication work spills into the next phase.
func (b *fleetBench) settle() error {
	deadline := time.Now().Add(settleTimeout)
	for {
		n, err := replicaInstalls(b.coord)
		if err != nil {
			return err
		}
		if int(n) >= b.done {
			b.installs = n
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication did not settle: %v installs for %d jobs", n, b.done)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// replicaInstalls reads the coordinator's replica install counter from
// its metric registry.
func replicaInstalls(c *cluster.Coordinator) (float64, error) {
	var buf bytes.Buffer
	if err := c.Registry().WritePrometheus(&buf); err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "pdfd_cluster_replication_installs_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, errors.New("coordinator exports no replica install counter")
}

// backendTotals sums the backends' own counters.
type backendTotals struct {
	storeHits, storeMisses, journalAppends, jobs float64
}

func (b *fleetBench) totals() backendTotals {
	var t backendTotals
	for _, bp := range b.backs {
		m := bp.st.MetricsRef()
		t.storeHits += float64(m.Hits.Load())
		t.storeMisses += float64(m.Misses.Load())
		s := bp.e.Metrics()
		t.journalAppends += float64(s.JournalAppends)
		t.jobs += float64(s.JobsSubmitted)
	}
	return t
}

func (b *fleetBench) timed() (*phase, error) {
	ph := &phase{class: isHit}
	specs := make([]engine.Spec, len(b.reqs))
	for i, r := range b.reqs {
		specs[i] = r.Spec
	}
	before, installs0 := b.totals(), b.installs
	ph.outs = make([]outcome, len(specs))
	sp := newSpeed()
	// The list runs in chunks. Between chunks, replication settles and
	// the host speed is sampled with the fleet idle, outside the timed
	// intervals and the memory windows.
	for lo := 0; lo < len(specs); lo += fleetChunk {
		hi := min(lo+fleetChunk, len(specs))
		var raw float64
		ph.mem.add(measureMem(func() {
			t := time.Now()
			b.send(specs[lo:hi], ph.outs[lo:hi])
			raw = time.Since(t).Seconds()
		}))
		if err := b.settle(); err != nil {
			return nil, err
		}
		scaled, f := sp.next(raw)
		for i := lo; i < hi; i++ {
			ph.outs[i].lat *= f
		}
		ph.elapsed += scaled
	}
	ph.speed = sp.factors
	after := b.totals()

	var hitLat, missLat []float64
	owners := 0
	for i, r := range b.reqs {
		o := &ph.outs[i]
		if o.err == nil && strings.HasPrefix(o.view.ID, b.coord.Owner(engine.SpecDigest(r.Spec))+"/") {
			owners++
		}
		if r.Hot >= 0 {
			o.err = b.checkHit(r, *o)
		} else if o.err == nil {
			if o.view.CacheHit {
				o.err = fmt.Errorf("%s: new job was a cache hit", specKey(r.Spec))
			} else {
				o.err = checkResult(b.refs, r.Spec, o.view)
			}
		}
		switch {
		case o.err != nil:
		case o.view.CacheHit:
			hitLat = append(hitLat, o.lat)
		default:
			missLat = append(missLat, o.lat)
		}
	}
	n := float64(len(b.reqs))
	var storeBytes, entries float64
	for _, bp := range b.backs {
		storeBytes += float64(bp.st.Bytes())
		entries += float64(bp.st.Len())
	}
	ph.layers = map[string]float64{
		"cluster.owner_ratio":      float64(owners) / n,
		"cluster.replica_installs": b.installs - installs0,
		"store.hits":               after.storeHits - before.storeHits,
		"store.misses":             after.storeMisses - before.storeMisses,
		"store.entry_bytes":        ratio(storeBytes, entries),
		"journal.appends_per_job":  ratio(after.journalAppends-before.journalAppends, after.jobs-before.jobs),
		"fleet.miss_p50_s":         median(missLat),
	}
	if p90, ok := percentile(hitLat, 90); ok {
		ph.layers["fleet.hit_p90_s"] = p90
	}
	return ph, nil
}

func (b *fleetBench) traced(rec *Recorder) (*tracedPhase, error) {
	ctx := context.Background()
	scratch := filepath.Join(b.dir, fmt.Sprintf("pass%d", b.pass), "scratch")
	st, err := store.Open(store.Config{Dir: filepath.Join(scratch, "store")})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	jl, _, err := journal.Open(filepath.Join(scratch, "journal"))
	if err != nil {
		return nil, err
	}
	defer jl.Close()
	// The scratch store starts as the backends did: holding the hot set.
	for _, res := range b.expected {
		payload, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		if err := st.Put(res.CacheKey, payload); err != nil {
			return nil, err
		}
	}
	byName := map[string]*backendProc{}
	for _, bp := range b.backs {
		byName[bp.name] = bp
	}

	tp := &tracedPhase{jobs: len(b.tracedReqs), sysSpan: "cluster", overheads: map[string][]float64{}}
	for i, r := range b.tracedReqs {
		cnt, err := b.tracedJob(ctx, rec, i, r, byName, st, jl)
		if err != nil {
			tp.failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced request %d (%s): %v\n", i, specKey(r.Spec), err)
			continue
		}
		tp.counters.add(cnt)
	}
	b.done += len(b.tracedReqs)
	if err := b.settle(); err != nil {
		return nil, err
	}
	tp.spans = rec.Spans()
	tp.overheads["cluster.overhead_s"] = outerMinusInner(tp.spans, "cluster", map[string]bool{"http": true})
	tp.overheads["http.overhead_s"] = outerMinusInner(tp.spans, "http", map[string]bool{"engine": true})
	tp.overheads["engine.overhead_s"] = outerMinusInner(tp.spans, "engine", engineLayers)
	tp.layers = map[string]float64{
		"store.get_s":      meanSpan(tp.spans, "store.get"),
		"store.put_s":      meanSpan(tp.spans, "store.put"),
		"journal.append_s": meanSpan(tp.spans, "journal"),
	}
	return tp, nil
}

// tracedJob replays one request: the coordinator round trip, then for
// a hit the same spec directly at its owner over HTTP and in process,
// then the layers called directly, then encode, store and journal
// against scratch copies.
func (b *fleetBench) tracedJob(ctx context.Context, rec *Recorder, i int, r fleetReq,
	byName map[string]*backendProc, st *store.Store, jl *journal.Log) (counters, error) {
	root, end := rec.Root(i, "job")
	defer end()
	var v engine.JobView
	var err error
	rec.Do(i, root, "cluster", func() { v, err = b.submitWait(b.front.url, r.Spec) })
	if err != nil {
		return counters{}, err
	}
	hit := r.Hot >= 0
	if hit {
		if err := b.checkHit(r, outcome{view: v}); err != nil {
			return counters{}, err
		}
	}
	// Every layeredEvery-th request, if a hit, is also sent to its owner
	// directly, over HTTP and in process, to split the hop costs.
	if hit && i%layeredEvery == 0 {
		owner, ok := byName[b.coord.Owner(engine.SpecDigest(r.Spec))]
		if !ok {
			return counters{}, errors.New("no owner on the ring")
		}
		var direct, local engine.JobView
		rec.Do(i, root, "http", func() { direct, err = b.submitWait(owner.srv.url, r.Spec) })
		if err == nil {
			rec.Do(i, root, "engine", func() { local, err = owner.e.RunJob(ctx, r.Spec) })
		}
		if err != nil {
			return counters{}, err
		}
		for _, w := range []engine.JobView{direct, local} {
			if err := b.checkHit(r, outcome{view: w}); err != nil {
				return counters{}, err
			}
		}
	}
	d, err := runPipeline(ctx, rec, i, root, r.Spec, !hit)
	if err != nil {
		return counters{}, err
	}
	if err := d.reproduces(v.Result, !hit); err != nil {
		return counters{}, err
	}
	var payload []byte
	rec.Do(i, root, "encode", func() { payload, err = json.Marshal(v.Result) })
	if err != nil {
		return counters{}, err
	}
	key := v.Result.CacheKey
	if hit {
		var stored []byte
		var ok bool
		rec.Do(i, root, "store.get", func() { stored, ok = st.Get(key) })
		if !ok || !bytes.Equal(stored, payload) {
			return counters{}, fmt.Errorf("%s: scratch store copy differs from the served result", specKey(r.Spec))
		}
		rec.Do(i, root, "testio", func() { _, err = parseTests(d.c, v.Result.Tests) })
	} else {
		rec.Do(i, root, "store.put", func() { err = st.Put(key, payload) })
	}
	if err != nil {
		return counters{}, err
	}
	rec.Do(i, root, "journal", func() {
		err = jl.Append(journal.Record{Op: journal.OpDone, JobID: strconv.Itoa(i), Digest: key})
	})
	return d.cnt, err
}

// meanSpan returns the mean duration in seconds of the spans named name.
func meanSpan(spans []Span, name string) float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e9)
		}
	}
	return mean(ds)
}
