package engine

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
)

// endingRig is an engine over a fresh journal, served over HTTP so a
// test can subscribe to a job's event stream the way a client does.
type endingRig struct {
	t   *testing.T
	dir string
	e   *Engine
	srv *httptest.Server
}

func newEndingRig(t *testing.T, cfg Config) *endingRig {
	t.Helper()
	dir := t.TempDir()
	log, _ := openJournal(t, dir)
	cfg.Journal = log
	e := New(cfg)
	srv := httptest.NewServer(NewServer(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
		log.Close()
	})
	return &endingRig{t: t, dir: dir, e: e, srv: srv}
}

func (r *endingRig) submit(spec Spec) *Job {
	r.t.Helper()
	j, err := r.e.Submit(spec)
	if err != nil {
		r.t.Fatal(err)
	}
	return j
}

// journal returns the records the journal holds for job id, read from
// a copy of the journal directory so the engine's open log is left
// alone.
func (r *endingRig) journal(id string) []journal.Record {
	r.t.Helper()
	b, err := os.ReadFile(filepath.Join(r.dir, "journal.wal"))
	if err != nil {
		r.t.Fatal(err)
	}
	dir := r.t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), b, 0o644); err != nil {
		r.t.Fatal(err)
	}
	log, recs := openJournal(r.t, dir)
	log.Close()
	var out []journal.Record
	for _, rec := range recs {
		if rec.JobID == id {
			out = append(out, rec)
		}
	}
	return out
}

// lastEvent subscribes to j's event stream after it ended and returns
// the last event type. The request fails unless the stream closes.
func (r *endingRig) lastEvent(j *Job) string {
	r.t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(r.srv.URL + "/v1/jobs/" + j.ID() + "/events")
	if err != nil {
		r.t.Fatal(err)
	}
	frames := parseSSEFrames(r.t, string(readBody(r.t, resp)))
	if len(frames) == 0 {
		r.t.Fatalf("job %s replayed no events", j.ID())
	}
	return frames[len(frames)-1].event
}

// ops renders records as "op" or "op digest" strings.
func ops(recs []journal.Record) string {
	var out []string
	for _, rec := range recs {
		s := string(rec.Op)
		if rec.Digest != "" {
			s += " " + rec.Digest
		}
		out = append(out, s)
	}
	return fmt.Sprint(out)
}

// holdRun holds every run at the prepare stage until its context ends.
var holdRun = InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
	if stage == StagePrepare {
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
})

var errInjected = errors.New("injected failure")

// TestJournalTerminalRecords pins what every way a job can end leaves
// behind: its status and error, the last event of its stream (which
// closes for a late subscriber), the terminal counters, and the
// journal. A job ended by its caller or by its run (a result or an
// error) journals a terminal record, even while Shutdown drains; a job
// ended by an engine shutdown stays live in the journal and replays on
// restart.
func TestJournalTerminalRecords(t *testing.T) {
	type delta struct{ done, failed, canceled int64 }
	check := func(t *testing.T, r *endingRig, j *Job, before Snapshot, st Status, errText string, want delta) JobView {
		t.Helper()
		v := waitDone(t, r.e, j.ID())
		if v.Status != st || v.Error != errText {
			t.Errorf("job %s = %s %q, want %s %q", j.ID(), v.Status, v.Error, st, errText)
		}
		if got := r.lastEvent(j); got != string(st) {
			t.Errorf("last event = %q, want %q", got, st)
		}
		m := r.e.Metrics()
		got := delta{m.JobsDone - before.JobsDone, m.JobsFailed - before.JobsFailed, m.JobsCanceled - before.JobsCanceled}
		if got != want {
			t.Errorf("terminal counter deltas (done, failed, canceled) = %v, want %v", got, want)
		}
		return v
	}
	// callerEnded asserts the journal holds the submitted and the
	// terminal record, read before Close compacts terminal records away.
	// Waiters wake before the terminal record's fsync, so poll for it.
	callerEnded := func(t *testing.T, r *endingRig, j *Job, want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			got := ops(r.journal(j.ID()))
			if got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("journal = %s, want %s", got, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// shutdownEnded asserts the job is journaled as submitted and nothing
	// else, both before and after the shutdown, so it replays.
	shutdownEnded := func(t *testing.T, r *endingRig, j *Job, beforeClose []journal.Record) {
		t.Helper()
		if got := ops(beforeClose); got != "[submitted]" {
			t.Errorf("journal before Close = %s, want [submitted]", got)
		}
		recs := r.journal(j.ID())
		if got := ops(recs); got != "[submitted]" {
			t.Errorf("journal after Close = %s, want [submitted]", got)
		}
		if live := journal.Live(recs); len(live) != 1 {
			t.Errorf("job %s not live after shutdown: %s", j.ID(), ops(recs))
		}
	}
	canceled := context.Canceled.Error()

	t.Run("done", func(t *testing.T) {
		r := newEndingRig(t, Config{Workers: 1})
		before := r.e.Metrics()
		j := r.submit(s27Spec(KindEnrich))
		v := check(t, r, j, before, StatusDone, "", delta{1, 0, 0})
		callerEnded(t, r, j, "[submitted done "+v.Result.CacheKey+"]")
	})
	t.Run("failed", func(t *testing.T) {
		// Submit journals the submitted record outside the engine lock,
		// so a run that fails at once may journal its terminal record
		// first (replay is order-insensitive). Hold the run until Submit
		// has returned, so the journal's order is fixed.
		submitted := make(chan struct{})
		inj := InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
			if stage == StagePrepare {
				<-submitted
				return errInjected
			}
			return nil
		})
		r := newEndingRig(t, Config{Workers: 1, Injector: inj})
		before := r.e.Metrics()
		j := r.submit(s27Spec(KindEnrich))
		close(submitted)
		check(t, r, j, before, StatusFailed, errInjected.Error(), delta{0, 1, 0})
		callerEnded(t, r, j, "[submitted failed]")
	})
	t.Run("cancel-queued", func(t *testing.T) {
		r := newEndingRig(t, Config{Workers: 1, Injector: holdRun})
		blocker := r.submit(s27Spec(KindEnrich))
		waitForStatus(t, blocker, StatusRunning, 10*time.Second)
		j := r.submit(s27Spec(KindGenerate))
		before := r.e.Metrics()
		if !r.e.Cancel(j.ID()) {
			t.Fatal("Cancel of a queued job reported false")
		}
		check(t, r, j, before, StatusCanceled, canceled, delta{0, 0, 1})
		callerEnded(t, r, j, "[submitted canceled]")
	})
	t.Run("cancel-running", func(t *testing.T) {
		r := newEndingRig(t, Config{Workers: 1, Injector: holdRun})
		j := r.submit(s27Spec(KindEnrich))
		waitForStatus(t, j, StatusRunning, 10*time.Second)
		before := r.e.Metrics()
		if !r.e.Cancel(j.ID()) {
			t.Fatal("Cancel of a running job reported false")
		}
		check(t, r, j, before, StatusCanceled, canceled, delta{0, 0, 1})
		callerEnded(t, r, j, "[submitted canceled]")
	})
	t.Run("shutdown-shed", func(t *testing.T) {
		r := newEndingRig(t, Config{Workers: 1, Injector: holdRun})
		blocker := r.submit(s27Spec(KindEnrich))
		waitForStatus(t, blocker, StatusRunning, 10*time.Second)
		j := r.submit(s27Spec(KindGenerate))
		recs := r.journal(j.ID())
		before := r.e.Metrics()
		r.e.Close()
		// The interrupted blocker counts as canceled too.
		check(t, r, j, before, StatusCanceled, canceled, delta{0, 0, 2})
		shutdownEnded(t, r, j, recs)
	})
	t.Run("shutdown-running", func(t *testing.T) {
		r := newEndingRig(t, Config{Workers: 1, Injector: holdRun})
		j := r.submit(s27Spec(KindEnrich))
		waitForStatus(t, j, StatusRunning, 10*time.Second)
		recs := r.journal(j.ID())
		before := r.e.Metrics()
		r.e.Close()
		check(t, r, j, before, StatusCanceled, canceled, delta{0, 0, 1})
		shutdownEnded(t, r, j, recs)
	})
	t.Run("fail-while-draining", func(t *testing.T) {
		// The run fails only once Shutdown has closed the engine, while
		// it drains: the job ends failed and journals it, so it does not
		// replay.
		release := make(chan struct{})
		inj := InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
			if stage == StagePrepare {
				<-release
				return errInjected
			}
			return nil
		})
		r := newEndingRig(t, Config{Workers: 1, Injector: inj})
		j := r.submit(s27Spec(KindEnrich))
		waitForStatus(t, j, StatusRunning, 10*time.Second)
		before := r.e.Metrics()
		shut := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			shut <- r.e.Shutdown(ctx)
		}()
		for {
			r.e.mu.Lock()
			closed := r.e.closed
			r.e.mu.Unlock()
			if closed {
				break
			}
			time.Sleep(time.Millisecond)
		}
		close(release)
		if err := <-shut; err != nil {
			t.Errorf("Shutdown = %v, want the job drained", err)
		}
		check(t, r, j, before, StatusFailed, errInjected.Error(), delta{0, 1, 0})
		recs := r.journal(j.ID())
		if got := ops(recs); got != "[submitted failed]" {
			t.Errorf("journal = %s, want [submitted failed]", got)
		}
		if live := journal.Live(recs); len(live) != 0 {
			t.Errorf("job %s live after failing while draining: %s", j.ID(), ops(recs))
		}
	})
}
