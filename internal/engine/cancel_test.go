package engine

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// The cancellation satellite: a job aborted mid-Enrich must return
// promptly, leak no goroutines, and leave the cache untouched.
func TestEngineCancelMidEnrich(t *testing.T) {
	baseline := numGoroutinesSettled()
	e := New(Config{Workers: 1})

	// s1423 enrichment runs for seconds — long enough to be mid-run
	// when the cancel lands.
	j, err := e.Submit(Spec{Kind: KindEnrich, Circuit: "s1423", NP: 2000, NP0: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, j, StatusRunning, 10*time.Second)
	time.Sleep(100 * time.Millisecond) // let it get into the enrich loop

	const grace = 3 * time.Second
	canceledAt := time.Now()
	if !e.Cancel(j.ID()) {
		t.Fatal("Cancel reported the job not cancelable")
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	v, err := e.Wait(ctx, j.ID())
	if err != nil {
		t.Fatalf("job did not terminate within %v of cancel: %v", grace, err)
	}
	t.Logf("cancel → terminal in %v", time.Since(canceledAt))
	if v.Status != StatusCanceled {
		t.Errorf("status = %s, want canceled", v.Status)
	}
	if v.Result != nil {
		t.Error("canceled job must not expose a result")
	}
	if e.Metrics().CacheLen != 0 {
		t.Error("canceled job must leave the cache untouched")
	}
	m := e.Metrics()
	if m.JobsCanceled != 1 || m.CachePuts != 0 {
		t.Errorf("metrics after cancel: %+v", m)
	}

	e.Close()
	// No leaked goroutines: the count must return to (about) the
	// pre-engine baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", n, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A job canceled while still queued must terminate without running.
func TestEngineCancelQueued(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	// Occupy the single worker.
	blocker, err := e.Submit(Spec{Kind: KindEnrich, Circuit: "s641", NP: 2000, NP0: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Submit(s27Spec(KindGenerate))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Cancel(queued.ID()) {
		t.Fatal("queued job must be cancelable")
	}
	v, err := e.Wait(context.Background(), queued.ID())
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCanceled {
		t.Errorf("queued-cancel status = %s", v.Status)
	}
	if v.RunMS != 0 {
		t.Errorf("canceled-while-queued job reports run time %vms", v.RunMS)
	}
	e.Cancel(blocker.ID())
	waitDone(t, e, blocker.ID())
}

// Close cancels running jobs and drains the queue.
func TestEngineCloseCancelsEverything(t *testing.T) {
	e := New(Config{Workers: 1})
	running, err := e.Submit(Spec{Kind: KindEnrich, Circuit: "s641", NP: 2000, NP0: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Submit(s27Spec(KindGenerate))
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, running, StatusRunning, 10*time.Second)
	e.Close()
	for _, j := range []*Job{running, queued} {
		select {
		case <-j.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("job %s not terminal after Close", j.ID())
		}
		if st := j.View().Status; st != StatusCanceled {
			t.Errorf("job %s status after Close = %s", j.ID(), st)
		}
	}
}

func waitForStatus(t *testing.T, j *Job, want Status, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := j.View()
		if v.Status == want {
			return
		}
		if v.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s status %s, want %s", j.ID(), v.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// numGoroutinesSettled samples the goroutine count after a short
// settle, absorbing runtime background goroutines spinning down.
func numGoroutinesSettled() int {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}
