package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// tableSize returns the job table's size and its live part.
func tableSize(e *Engine) (jobs, live int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.jobs), len(e.live)
}

// runN runs n s27 generate jobs one after another; after the first,
// each is a cache hit.
func runN(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if v, err := e.RunJob(context.Background(), s27Spec(KindGenerate)); err != nil || v.Status != StatusDone {
			t.Fatalf("job %d: %s %s, %v", i, v.Status, v.Error, err)
		}
	}
}

// The job table forgets: through 20,000 cache-hit jobs it holds the
// live jobs plus the last retainFinished to finish, and the post-GC
// heap grows by less than 1 MB over the second 10,000. A table that
// kept every job grows by several kilobytes a job.
func TestJobTableBounded(t *testing.T) {
	const (
		half    = 10_000
		boundMB = 1
	)
	e := New(Config{Workers: 1})
	defer e.Close()
	check := func() {
		t.Helper()
		if jobs, live := tableSize(e); jobs > retainFinished+live {
			t.Fatalf("job table holds %d jobs, %d of them live; want at most %d finished", jobs, live, retainFinished)
		}
	}
	var before uint64
	for n := 1000; n <= 2*half; n += 1000 {
		runN(t, e, 1000)
		check()
		if n == half {
			before = liveHeap()
		}
	}
	after := liveHeap()
	grown := int64(after) - int64(before)
	t.Logf("post-GC heap: %d -> %d bytes over %d jobs", before, after, half)
	if grown >= boundMB<<20 {
		t.Errorf("post-GC heap grew %d bytes over %d jobs, want < %d MB", grown, half, boundMB)
	}
	if _, ok := e.Get("j1"); ok {
		t.Error("the first job is still in the table")
	}
	id := fmt.Sprintf("j%d", 2*half)
	if v, ok := e.Get(id); !ok || v.ViewLite().Result == nil {
		t.Errorf("the last job %s left the table or lost its result", id)
	}
}

// A page token taken before older jobs were evicted resumes in seq
// order: every job still in the table past the token is listed once,
// and no job twice, while each page is followed by more evictions.
func TestJobTablePagination(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	runN(t, e, 300)
	page, next := e.JobsPage(JobsQuery{Limit: 100})
	first := next
	if len(page) != 100 || first != 100 {
		t.Fatalf("first page: %d jobs, next %d; want 100, 100", len(page), first)
	}
	var seqs []int64
	for round := 0; next != 0; round++ {
		if round < 10 {
			runN(t, e, 100) // the table overflows: the oldest jobs leave
		}
		page, next = e.JobsPage(JobsQuery{Limit: 100, AfterSeq: next})
		for _, v := range page {
			seqs = append(seqs, v.seq)
		}
	}
	if !slices.IsSorted(seqs) || len(slices.Compact(slices.Clone(seqs))) != len(seqs) {
		t.Fatalf("listing is out of seq order or repeats a job: %v", seqs)
	}
	if seqs[0] <= first {
		t.Fatalf("listing resumed at seq %d, not after the token's %d", seqs[0], first)
	}
	e.mu.Lock()
	var want []int64
	for _, j := range e.jobs {
		if j.seq > first {
			want = append(want, j.seq)
		}
	}
	e.mu.Unlock()
	slices.Sort(want)
	if missing := slices.DeleteFunc(want, func(s int64) bool { _, found := slices.BinarySearch(seqs, s); return found }); len(missing) > 0 {
		t.Fatalf("listing skipped %d jobs of the table: %v", len(missing), missing)
	}
}

// After the table evicted finished jobs, the journal compaction of a
// shutdown writes exactly the live jobs' submitted records.
func TestJobTableCompaction(t *testing.T) {
	var hold atomic.Bool
	inj := InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
		if stage == StagePrepare && hold.Load() {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	r := newEndingRig(t, Config{Workers: 1, Injector: inj})
	runN(t, r.e, retainFinished+10)
	if _, ok := r.e.Get("j1"); ok {
		t.Fatal("no job was evicted")
	}
	hold.Store(true)
	spec := s27Spec(KindGenerate)
	spec.NoCache = true
	var live []string
	for i := 0; i < 3; i++ {
		live = append(live, r.submit(spec).ID())
	}
	// A waiter wakes before its job's terminal record is appended: let
	// the last one land, so none trails the compaction.
	for deadline := time.Now().Add(10 * time.Second); r.e.Metrics().JournalAppends < 2*(retainFinished+10)+3; {
		if time.Now().After(deadline) {
			t.Fatal("terminal records never reached the journal")
		}
		time.Sleep(time.Millisecond)
	}
	r.e.Close()

	b, err := os.ReadFile(filepath.Join(r.dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	log, recs := openJournal(t, dir)
	log.Close()
	var got []string
	for _, rec := range recs {
		if rec.Op != journal.OpSubmitted {
			t.Errorf("compacted journal holds a %s record of %s", rec.Op, rec.JobID)
		}
		got = append(got, rec.JobID)
	}
	if !slices.Equal(got, live) {
		t.Fatalf("compacted journal holds %v, want the live jobs %v", got, live)
	}
}
