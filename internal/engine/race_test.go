package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Regression: Submit's ErrBusy path used to roll back by truncating the
// last element of the submission order, which under concurrent Submits
// could belong to a different job — leaving a dangling ID whose JobsPage
// snapshot panics on a nil *Job. The rollback is now atomic with the
// enqueue, so rejected jobs leave no trace.
func TestEngineSubmitBusyConcurrent(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	// Occupy the single worker so the queue actually fills.
	blocker, err := e.Submit(Spec{Kind: KindEnrich, Circuit: "s641", NP: 2000, NP0: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, blocker, StatusRunning, 10*time.Second)

	const submitters = 16
	var ok, busy atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				_, err := e.Submit(s27Spec(KindGenerate))
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrBusy):
					busy.Add(1)
				default:
					t.Errorf("unexpected submit error: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if busy.Load() == 0 {
		t.Log("queue never filled; rollback path not exercised this run")
	}

	// Every listed job must resolve — pre-fix this panicked on a nil
	// *Job once a rollback had truncated someone else's order entry.
	views, _ := e.JobsPage(JobsQuery{})
	want := int(ok.Load()) + 1 // + blocker
	if len(views) != want {
		t.Errorf("JobsPage lists %d jobs, want %d (accepted submits + blocker)", len(views), want)
	}
	seen := make(map[string]bool, len(views))
	for _, v := range views {
		if v.ID == "" {
			t.Fatal("job view with empty ID")
		}
		if seen[v.ID] {
			t.Errorf("duplicate job ID %s in listing", v.ID)
		}
		seen[v.ID] = true
	}
	e.Cancel(blocker.ID())
	e.Close()
}

// Regression: Cancel's queued path used to mark the job canceled after
// releasing j.mu, racing a worker that dequeues it in the window — the
// job could report canceled yet run to completion, with a second
// terminal transition double-counting metrics. Stress the window and
// assert the terminal bookkeeping stays consistent.
func TestEngineCancelSubmitStress(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 64})
	defer e.Close()

	const n = 24
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		spec := s27Spec(KindGenerate)
		spec.NoCache = true
		j, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		go e.Cancel(j.ID()) // race the cancel against the dequeue
	}
	for _, j := range jobs {
		v := waitDone(t, e, j.ID())
		switch v.Status {
		case StatusDone:
			if v.Result == nil {
				t.Errorf("job %s done without result", v.ID)
			}
		case StatusCanceled:
			if v.Result != nil {
				t.Errorf("canceled job %s exposes a result", v.ID)
			}
		default:
			t.Errorf("job %s terminal status = %s", v.ID, v.Status)
		}
	}
	m := e.Metrics()
	if got := m.JobsDone + m.JobsCanceled + m.JobsFailed; got != m.JobsSubmitted {
		t.Errorf("terminal counts %d (done %d + canceled %d + failed %d) != submitted %d",
			got, m.JobsDone, m.JobsCanceled, m.JobsFailed, m.JobsSubmitted)
	}
	if m.JobsQueued != 0 {
		t.Errorf("derived queued gauge = %d after all jobs terminal", m.JobsQueued)
	}
}

// A job's first terminal transition wins; later end calls are
// no-ops.
func TestJobMarkDoneIdempotent(t *testing.T) {
	j := &Job{id: "j1", status: StatusQueued, done: make(chan struct{})}
	if _, ok := j.end(true, StatusCanceled, nil, false, context.Canceled); !ok {
		t.Fatal("waiting end on a queued job must succeed")
	}
	if _, ok := j.end(true, StatusCanceled, nil, false, context.Canceled); ok {
		t.Error("second waiting end must be a no-op")
	}
	if _, ok := j.end(false, StatusDone, &Result{}, false, nil); ok {
		t.Error("end after a terminal transition must be a no-op")
	}
	v := j.View()
	if v.Status != StatusCanceled || v.Result != nil {
		t.Errorf("terminal state overwritten: status %s, result %v", v.Status, v.Result)
	}
	// Waiters wake only once the engine has recorded the terminal
	// counters (Engine.end), not at the transition itself.
	select {
	case <-j.Done():
		t.Error("done channel closed before the terminal counters were recorded")
	default:
	}
	j.wake()
	select {
	case <-j.Done():
	default:
		t.Error("done channel not closed")
	}
	if v.Error != context.Canceled.Error() {
		t.Errorf("error = %q", v.Error)
	}
}

// A waiter woken by Done must find the job in the terminal counters
// and the end-to-end latency histogram: Engine.end records them
// before it closes the channel.
func TestTerminalCountersBeforeWake(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	hist := e.metrics.jobSeconds.With(string(KindGenerate), string(StatusDone))
	for n := 1; n <= 50; n++ {
		v, err := e.RunJob(context.Background(), s27Spec(KindGenerate))
		if err != nil || v.Status != StatusDone {
			t.Fatalf("job %d: %v %s", n, err, v.Status)
		}
		if got := e.Metrics().JobsDone; got != int64(n) {
			t.Fatalf("after job %d returned: jobs_done = %d", n, got)
		}
		if got := hist.Count(); got != uint64(n) {
			t.Fatalf("after job %d returned: job duration count = %d", n, got)
		}
	}
}
