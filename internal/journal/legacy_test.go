package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// legacyWAL is a journal recorded by an engine that still appended
// started, stage and retrying records besides submitted and the
// terminal ops: j1 done, j2 retried then failed, j3 canceled mid-run,
// j4 retried and mid-run at the crash, j5 queued at the crash. Records
// of one job interleave out of lifecycle order, as concurrent writers
// leave them.
const legacyWAL = "testdata/legacy.wal"

// legacyRecords is the (op, job, seq) of every record in legacyWAL.
var legacyRecords = []string{
	"submitted j1 1", "started j1 1", "stage j1 1", "stage j1 1", "done j1 1",
	"started j2 2", "stage j2 2", "retrying j2 2", "submitted j2 2",
	"started j2 2", "stage j2 2", "failed j2 2",
	"submitted j3 3", "started j3 3", "stage j3 3", "canceled j3 3",
	"started j4 4", "stage j4 4", "retrying j4 4", "submitted j4 4",
	"started j4 4", "stage j4 4",
	"submitted j5 5",
}

// openLegacy opens a private copy of legacyWAL, so recovery never
// writes to testdata.
func openLegacy(t *testing.T) (*Log, []Record) {
	t.Helper()
	b, err := os.ReadFile(legacyWAL)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fileName), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return openT(t, dir)
}

// A journal holding the retired started/stage/retrying ops still
// opens intact and distills to the same live set: replay skips the
// ops it does not read and the fields it no longer decodes.
func TestJournalLegacyReplay(t *testing.T) {
	l, recs := openLegacy(t)
	if size, err := l.Size(); err != nil || size != 2175 {
		t.Errorf("Size = %d, %v, want the whole 2175-byte log kept", size, err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%s %s %d", r.Op, r.JobID, r.Seq))
	}
	if fmt.Sprint(got) != fmt.Sprint(legacyRecords) {
		t.Fatalf("replayed records\n got %q\nwant %q", got, legacyRecords)
	}
	if d := recs[4].Digest; d != "02/c5ecacf0d7512f2d/b2147016c03ff14e" {
		t.Errorf("done record digest = %q", d)
	}

	wantSpecs := map[string]string{
		"j4": `{"kind":"faultsim","circuit":"s27","np0":10,"seed":4,"heuristic":"values","max_retries":2,"tests":["0010010 -\u003e 1010010","1111111 -\u003e 0000000"],"tenant":"default","priority":"interactive"}`,
		"j5": `{"kind":"generate","circuit":"s27","np0":10,"seed":5,"heuristic":"values","tenant":"gold","priority":"batch"}`,
	}
	live := Live(recs)
	if len(live) != 2 || live[0].JobID != "j4" || live[0].Seq != 4 || live[1].JobID != "j5" || live[1].Seq != 5 {
		t.Fatalf("Live = %+v, want [j4/4 j5/5]", live)
	}
	for _, r := range live {
		if r.Op != OpSubmitted || !bytes.Equal(r.Spec, []byte(wantSpecs[r.JobID])) {
			t.Errorf("live %s = %s %s, want submitted %s", r.JobID, r.Op, r.Spec, wantSpecs[r.JobID])
		}
	}
	if got := MaxSeq(recs); got != 5 {
		t.Errorf("MaxSeq = %d, want 5", got)
	}

	// Compacting to the live set drops every legacy op for good.
	if err := l.Compact(live); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(l.path)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs2 := openT(t, dir)
	defer l2.Close()
	if len(recs2) != 2 || fmt.Sprint(Live(recs2)) != fmt.Sprint(live) {
		t.Errorf("after compaction replayed %+v, want the live set %+v", recs2, live)
	}
}
