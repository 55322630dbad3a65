package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// openJournal opens (or reopens) the journal under dir.
func openJournal(t *testing.T, dir string) (*journal.Log, []journal.Record) {
	t.Helper()
	log, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open(%s): %v", dir, err)
	}
	return log, recs
}

// A panic is confined to its job, which fails once with the panic and
// its stack: the job is not run again, and the worker and the engine
// carry on with the next job.
func TestChaosPanicFailsOnce(t *testing.T) {
	var runs atomic.Int64
	inj := InjectorFunc(func(ctx context.Context, stage Stage, jobID string) error {
		if stage == StagePrepare && jobID == "j1" {
			runs.Add(1)
			panic("injected chaos panic")
		}
		return nil
	})
	e := New(Config{Workers: 1, Injector: inj})
	defer e.Close()

	j, err := e.Submit(s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e, j.ID())
	want := (&PanicError{Value: "injected chaos panic"}).Error()
	if v.Status != StatusFailed || v.Error != want {
		t.Fatalf("job = %s %q, want failed %q", v.Status, v.Error, want)
	}
	if v.PanicStack == "" {
		t.Error("PanicStack not captured from the panicking run")
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("panicking job ran %d times, want 1", n)
	}
	m := e.Metrics()
	if m.JobPanics != 1 || m.JobsFailed != 1 || m.JobsDone != 0 {
		t.Errorf("metrics = panics %d failed %d done %d, want 1/1/0", m.JobPanics, m.JobsFailed, m.JobsDone)
	}

	// The worker that recovered still runs jobs.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v2, err := e.RunJob(ctx, s27Spec(KindGenerate))
	if err != nil || v2.Status != StatusDone {
		t.Fatalf("engine wedged after contained panic: %v %s (%s)", err, v2.Status, v2.Error)
	}
}

// An injected error fails the job on its first run, with the injected
// text: a deterministic job is not run again.
func TestChaosInjectedErrorFailsFirstRun(t *testing.T) {
	injected := errors.New("injected transient failure")
	var tries atomic.Int64
	inj := InjectorFunc(func(ctx context.Context, stage Stage, jobID string) error {
		if stage == StagePrepare {
			tries.Add(1)
			return injected
		}
		return nil
	})
	e := New(Config{Workers: 1, Injector: inj})
	defer e.Close()

	j, err := e.Submit(s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e, j.ID())
	if v.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", v.Status)
	}
	if n := tries.Load(); n != 1 {
		t.Errorf("injector saw %d calls, want 1", n)
	}
	if !strings.Contains(v.Error, injected.Error()) {
		t.Errorf("job error = %q, want the injected failure", v.Error)
	}
	if m := e.Metrics(); m.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1", m.JobsFailed)
	}
}

// A journal written before the "workers" spec field was removed still
// replays: Restore decodes leniently, and the job completes with the
// result of the same spec without the field.
func TestJournalReplaysLegacyWorkersSpec(t *testing.T) {
	dir := t.TempDir()
	log1, _ := openJournal(t, dir)
	legacy := `{"kind":"enrich","circuit":"s27","np0":10,"seed":1,"workers":4}`
	if err := log1.Append(journal.Record{Op: journal.OpSubmitted, JobID: "j1", Seq: 1,
		Spec: json.RawMessage(legacy)}); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	log2, recs := openJournal(t, dir)
	defer log2.Close()
	e := New(Config{Workers: 1, Journal: log2})
	defer e.Close()
	if n, err := e.Restore(recs); err != nil || n != 1 {
		t.Fatalf("Restore = %d, %v, want 1 job", n, err)
	}
	replayed := waitDone(t, e, "j1")
	if replayed.Status != StatusDone {
		t.Fatalf("replayed job status = %s (%s)", replayed.Status, replayed.Error)
	}

	ctrlEngine := New(Config{Workers: 1})
	defer ctrlEngine.Close()
	ctrl, err := ctrlEngine.RunJob(context.Background(), s27Spec(KindEnrich))
	if err != nil || ctrl.Status != StatusDone {
		t.Fatalf("control run: %v %s", err, ctrl.Status)
	}
	got, _ := json.Marshal(replayed.Result)
	want, _ := json.Marshal(ctrl.Result)
	if !bytes.Equal(got, want) {
		t.Errorf("legacy replay result differs from control:\n got %s\nwant %s", got, want)
	}
}

// A journal recorded when the engine still appended started, stage and
// retrying records restores through the one admission path: the live
// jobs come back under their journaled IDs, seqs and specs, counted
// once each in jobs_submitted, and each runs once to done. j4's
// journaled spec carries the removed max_retries field, which the
// lenient replay decode drops.
func TestJournalLegacyRestore(t *testing.T) {
	b, err := os.ReadFile("../journal/testdata/legacy.wal")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	log, recs := openJournal(t, dir)
	defer log.Close()
	live := journal.Live(recs)
	if len(live) != 2 {
		t.Fatalf("legacy journal live set = %+v, want 2 jobs", live)
	}

	var mu sync.Mutex
	runs := map[string]int{}
	count := InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
		if stage == StageLoad {
			mu.Lock()
			runs[id]++
			mu.Unlock()
		}
		return nil
	})
	e := New(Config{Workers: 1, Journal: log, Injector: count})
	defer e.Close()
	n, err := e.Restore(recs)
	if err != nil || n != len(live) {
		t.Fatalf("Restore = %d, %v, want %d jobs", n, err, len(live))
	}
	if got := e.Metrics().JobsSubmitted; got != int64(n) {
		t.Errorf("JobsSubmitted = %d, want the %d restored jobs", got, n)
	}
	// j4's spec is the journaled one without max_retries; j5's is the
	// journaled one byte for byte.
	wantSpecs := map[string]string{
		"j4": `{"kind":"faultsim","circuit":"s27","np0":10,"seed":4,"heuristic":"values","tests":["0010010 -\u003e 1010010","1111111 -\u003e 0000000"],"tenant":"default","priority":"interactive"}`,
		"j5": string(live[1].Spec),
	}
	for _, r := range live {
		j, ok := e.Get(r.JobID)
		if !ok {
			t.Fatalf("restored job %s missing", r.JobID)
		}
		if got := string(marshalSpec(j.spec)); j.seq != r.Seq || got != wantSpecs[r.JobID] {
			t.Errorf("restored %s = seq %d spec %s, want seq %d spec %s", r.JobID, j.seq, got, r.Seq, wantSpecs[r.JobID])
		}
		if v := waitDone(t, e, r.JobID); v.Status != StatusDone {
			t.Errorf("restored %s = %s (%s), want done", r.JobID, v.Status, v.Error)
		}
	}
	mu.Lock()
	if runs["j4"] != 1 || runs["j5"] != 1 {
		t.Errorf("restored jobs ran %v times, want j4 and j5 once each", runs)
	}
	mu.Unlock()
	// A second replay of the same records finds every job registered.
	if n2, err := e.Restore(recs); err != nil || n2 != 0 {
		t.Errorf("second Restore = %d, %v, want 0 (duplicates skipped)", n2, err)
	}
	if got := e.Metrics().JobsSubmitted; got != int64(n) {
		t.Errorf("JobsSubmitted after a duplicate replay = %d, want %d", got, n)
	}
	// The next submission continues past the journal's highest seq.
	j, err := e.Submit(s27Spec(KindGenerate))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "j6" {
		t.Errorf("first new job after replay = %s, want j6", j.ID())
	}
	waitDone(t, e, j.ID())
}

// Crash mid-run, restart with the same journal dir: the interrupted
// job is replayed under its original ID and its Result is
// byte-identical to an uninterrupted run.
func TestChaosCrashReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := s27Spec(KindEnrich)

	// Incarnation 1: the injector holds the job mid-run until the
	// engine is torn down, simulating a crash with work in flight.
	var crash atomic.Bool
	crash.Store(true)
	inj := InjectorFunc(func(ctx context.Context, stage Stage, jobID string) error {
		if stage == StagePrepare && crash.Load() {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	log1, recs := openJournal(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	e1 := New(Config{Workers: 1, Journal: log1, Injector: inj})
	j, err := e1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, j, StatusRunning, 10*time.Second)
	e1.Close() // no drain: the running job dies with the process
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: replay re-enqueues the job; it runs to done.
	crash.Store(false)
	log2, recs2 := openJournal(t, dir)
	if live := journal.Live(recs2); len(live) != 1 || live[0].JobID != j.ID() {
		t.Fatalf("journal live set after crash = %+v, want [%s]", live, j.ID())
	}
	e2 := New(Config{Workers: 1, Journal: log2, Injector: inj})
	n, err := e2.Restore(recs2)
	if err != nil || n != 1 {
		t.Fatalf("Restore = %d, %v, want 1 job", n, err)
	}
	replayed := waitDone(t, e2, j.ID())
	if replayed.Status != StatusDone {
		t.Fatalf("replayed job status = %s (%s)", replayed.Status, replayed.Error)
	}
	gotBytes, err := json.Marshal(replayed.Result)
	if err != nil {
		t.Fatal(err)
	}

	// New submissions must not collide with the replayed ID.
	j2, err := e2.Submit(s27Spec(KindGenerate))
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() == j.ID() {
		t.Fatalf("ID counter reused %s after replay", j.ID())
	}
	waitDone(t, e2, j2.ID())

	// Graceful shutdown retires everything; a third incarnation has
	// nothing to replay.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e2.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	log3, recs3 := openJournal(t, dir)
	defer log3.Close()
	if live := journal.Live(recs3); len(live) != 0 {
		t.Errorf("live jobs after clean shutdown: %+v", live)
	}

	// Control: the same spec on a fresh engine, never interrupted.
	e3 := New(Config{Workers: 1})
	defer e3.Close()
	ctrl, err := e3.RunJob(context.Background(), spec)
	if err != nil || ctrl.Status != StatusDone {
		t.Fatalf("control run: %v %s", err, ctrl.Status)
	}
	wantBytes, err := json.Marshal(ctrl.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("replayed result differs from uninterrupted run:\n got %s\nwant %s", gotBytes, wantBytes)
	}
}

// Shutdown under a deadline sheds the queue but keeps shed jobs live
// in the journal; the next incarnation replays all of them.
func TestChaosShutdownShedsAndReplays(t *testing.T) {
	dir := t.TempDir()
	var crash atomic.Bool
	crash.Store(true)
	release := make(chan struct{})
	inj := InjectorFunc(func(ctx context.Context, stage Stage, jobID string) error {
		if stage == StagePrepare && crash.Load() {
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	})
	log1, _ := openJournal(t, dir)
	e1 := New(Config{Workers: 1, Journal: log1, Injector: inj})
	running, err := e1.Submit(s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e1.Submit(s27Spec(KindGenerate))
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, running, StatusRunning, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e1.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a stuck job = %v, want deadline exceeded", err)
	}
	for _, j := range []*Job{running, queued} {
		if st := j.View().Status; st != StatusCanceled {
			t.Errorf("job %s after hard shutdown = %s, want canceled", j.ID(), st)
		}
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	crash.Store(false)
	log2, recs2 := openJournal(t, dir)
	defer log2.Close()
	if live := journal.Live(recs2); len(live) != 2 {
		t.Fatalf("live jobs after hard shutdown = %+v, want both", live)
	}
	e2 := New(Config{Workers: 2, Journal: log2, Injector: inj})
	defer e2.Close()
	n, err := e2.Restore(recs2)
	if err != nil || n != 2 {
		t.Fatalf("Restore = %d, %v, want 2", n, err)
	}
	for _, id := range []string{running.ID(), queued.ID()} {
		if v := waitDone(t, e2, id); v.Status != StatusDone {
			t.Errorf("replayed job %s = %s (%s)", id, v.Status, v.Error)
		}
	}
}

// A graceful shutdown with headroom drains running jobs to completion.
func TestChaosShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	e := New(Config{Workers: 2, Injector: InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
		if stage == StageLoad {
			once.Do(func() { close(started) })
		}
		return nil
	})})
	j, err := e.Submit(s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	// Only running jobs drain — a still-queued one would be shed — so
	// hold Shutdown until the job has entered the pipeline.
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := j.View().Status; st != StatusDone {
		t.Errorf("job after graceful shutdown = %s, want done", st)
	}
	if _, err := e.Submit(s27Spec(KindGenerate)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Shutdown = %v, want ErrClosed", err)
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown = %v, want nil", err)
	}
}

// Past the shed watermark the engine rejects with ErrOverloaded, the
// server answers 503 with Retry-After, /healthz degrades — and all of
// it clears once the queue drains.
func TestChaosOverloadShedAndRecover(t *testing.T) {
	release := make(chan struct{})
	inj := InjectorFunc(func(ctx context.Context, stage Stage, jobID string) error {
		if stage != StagePrepare {
			return nil
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	// The single worker blocks on its first job, so the queue can
	// never drain below the low-water mark (2) until release.
	e := New(Config{Workers: 1, QueueDepth: 16, ShedWatermark: 4, Injector: inj})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	// One job runs (blocked); keep submitting until the watermark
	// sheds.
	var ids []string
	var shedErr error
	for i := 0; i < 16; i++ {
		j, err := e.Submit(s27Spec(KindEnrich))
		if err != nil {
			shedErr = err
			break
		}
		ids = append(ids, j.ID())
	}
	if !errors.Is(shedErr, ErrOverloaded) {
		t.Fatalf("submitting past the watermark = %v, want ErrOverloaded", shedErr)
	}
	if !e.Overloaded() {
		t.Fatal("engine not overloaded after shedding")
	}
	m := e.Metrics()
	if m.JobsShed == 0 || !m.Overloaded || m.QueueDepth == 0 {
		t.Errorf("snapshot = shed %d overloaded %v depth %d", m.JobsShed, m.Overloaded, m.QueueDepth)
	}

	// HTTP surface: submit → 503 + Retry-After, healthz degraded.
	resp, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{"kind": "enrich", "circuit": "s27", "np0": 10})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("overloaded POST /v1/jobs = %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without a Retry-After header")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("503 content type = %q", ct)
	}
	var health map[string]any
	if hresp := getJSON(t, srv.URL+"/v1/healthz", &health); hresp.StatusCode != http.StatusServiceUnavailable || health["status"] != "overloaded" {
		t.Errorf("degraded healthz = %d %v, want 503 overloaded", hresp.StatusCode, health)
	}

	// Unblock, drain, recover.
	close(release)
	for _, id := range ids {
		waitDone(t, e, id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Overloaded() {
		if time.Now().After(deadline) {
			t.Fatal("overload never cleared after the queue drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := e.Submit(s27Spec(KindGenerate)); err != nil {
		t.Errorf("Submit after recovery = %v", err)
	}
	if hresp := getJSON(t, srv.URL+"/v1/healthz", &health); hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz after recovery = %d", hresp.StatusCode)
	}
}

// A terminal job wins over an expired wait context: Wait must return
// the snapshot with a nil error even when both channels are ready.
func TestWaitTerminalBeatsExpiredContext(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	j, err := e.Submit(s27Spec(KindGenerate))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Both select arms are ready; repeat to cover the runtime's random
	// choice.
	for i := 0; i < 100; i++ {
		v, err := e.Wait(ctx, j.ID())
		if err != nil {
			t.Fatalf("Wait on terminal job with expired ctx (iter %d): %v", i, err)
		}
		if !v.Status.Terminal() {
			t.Fatalf("Wait returned non-terminal view %s", v.Status)
		}
	}
	// A job that is genuinely still pending does surface the ctx error.
	e2 := New(Config{Workers: 1, Injector: InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
		if stage == StagePrepare {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})})
	defer e2.Close()
	stuck, err := e2.Submit(s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Wait(ctx, stuck.ID()); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait on running job with expired ctx = %v, want context.Canceled", err)
	}
}

// Retry records and terminal records pace compaction: a journal under
// churn stays bounded and replays only live work.
func TestChaosJournalCompactionUnderChurn(t *testing.T) {
	dir := t.TempDir()
	log, _ := openJournal(t, dir)
	defer log.Close()
	e := New(Config{Workers: 2, Journal: log, JournalCompactEvery: 8})
	for i := 0; i < 10; i++ {
		if _, err := e.Submit(s27Spec(KindGenerate)); err != nil {
			t.Fatal(err)
		}
	}
	views, _ := e.JobsPage(JobsQuery{})
	for _, v := range views {
		waitDone(t, e, v.ID)
	}
	if n := e.Metrics().JournalCompactions; n == 0 {
		t.Error("no compaction despite churn past JournalCompactEvery")
	}
	e.Close()

	log2, recs := openJournal(t, dir)
	defer log2.Close()
	if live := journal.Live(recs); len(live) != 0 {
		t.Errorf("live jobs after everything completed: %+v", live)
	}
	if len(recs) > 40 {
		t.Errorf("journal kept %d records for 10 finished jobs; compaction not bounding growth", len(recs))
	}
}
