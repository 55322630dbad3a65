package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openT(t *testing.T, dir string) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, recs
}

func appendT(t *testing.T, l *Log, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
	}
}

func submitted(id string, seq int64) Record {
	return Record{Op: OpSubmitted, JobID: id, Seq: seq, Spec: json.RawMessage(`{"kind":"enrich","circuit":"s27"}`)}
}

func walPath(dir string) string { return filepath.Join(dir, fileName) }

// Ops an older engine journaled besides submitted and the terminal
// ops. Replay must still skip them.
const (
	legacyStarted  Op = "started"
	legacyStage    Op = "stage"
	legacyRetrying Op = "retrying"
)

func TestJournalRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := openT(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		submitted("j1", 1),
		{Op: OpDone, JobID: "j1", Seq: 1, Digest: "abc/def/123"},
	}
	appendT(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Op: OpCanceled, JobID: "j9"}); err == nil {
		t.Error("Append after Close must fail")
	}

	l2, got := openT(t, dir)
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].JobID != want[i].JobID ||
			got[i].Digest != want[i].Digest || got[i].Seq != want[i].Seq {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if string(got[0].Spec) != string(want[0].Spec) {
		t.Errorf("spec payload %s, want %s", got[0].Spec, want[0].Spec)
	}
}

// A crash mid-write leaves a torn record at the tail; replay must
// recover every intact record, drop the tail, and keep appending.
func TestJournalTornTailRecovery(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func(t *testing.T, path string)
	}{
		{"garbage-appended", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0x13, 0x37}) // torn header
			f.Close()
		}},
		{"payload-truncated", func(t *testing.T, path string) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"payload-bitflip", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-2] ^= 0xff // inside the last payload → CRC mismatch
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"absurd-length-prefix", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			// Header claiming a 4GB-ish record, then nothing.
			f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4})
			f.Close()
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir)
			appendT(t, l,
				submitted("j1", 1),
				Record{Op: legacyStarted, JobID: "j1", Seq: 1},
				Record{Op: OpDone, JobID: "j1", Seq: 1},
			)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tc.mut(t, walPath(dir))

			l2, recs := openT(t, dir)
			wantIntact := 3
			if tc.name == "payload-truncated" || tc.name == "payload-bitflip" {
				wantIntact = 2 // the last record itself is the casualty
			}
			if len(recs) != wantIntact {
				t.Fatalf("replayed %d records after %s, want %d", len(recs), tc.name, wantIntact)
			}
			// The corrupt tail is gone: appends land cleanly and a
			// further replay sees them.
			appendT(t, l2, submitted("j2", 2))
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			l3, recs3 := openT(t, dir)
			defer l3.Close()
			if len(recs3) != wantIntact+1 {
				t.Fatalf("after recovery+append replayed %d, want %d", len(recs3), wantIntact+1)
			}
			last := recs3[len(recs3)-1]
			if last.Op != OpSubmitted || last.JobID != "j2" {
				t.Errorf("appended record corrupted: %+v", last)
			}
		})
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	appendT(t, l,
		submitted("j1", 1),
		Record{Op: legacyStarted, JobID: "j1", Seq: 1},
		Record{Op: legacyStage, JobID: "j1", Seq: 1},
		Record{Op: OpDone, JobID: "j1", Seq: 1},
		submitted("j2", 2),
		Record{Op: legacyStarted, JobID: "j2", Seq: 2},
		submitted("j3", 3),
		Record{Op: legacyStarted, JobID: "j3", Seq: 3},
		Record{Op: OpFailed, JobID: "j3", Seq: 3},
	)
	before, err := l.Size()
	if err != nil {
		t.Fatal(err)
	}
	if n := l.AppendedSinceCompact(); n != 9 {
		t.Errorf("AppendedSinceCompact = %d, want 9", n)
	}

	if live := Live(nil); live != nil {
		t.Errorf("Live(nil) = %v", live)
	}
	// Only j2 must survive compaction (j1 done, j3 failed).
	keep := Live([]Record{
		submitted("j1", 1), {Op: OpDone, JobID: "j1", Seq: 1},
		submitted("j2", 2), {Op: legacyStarted, JobID: "j2", Seq: 2},
		submitted("j3", 3), {Op: OpFailed, JobID: "j3", Seq: 3},
	})
	if len(keep) != 1 || keep[0].JobID != "j2" || keep[0].Op != OpSubmitted {
		t.Fatalf("Live kept %+v, want j2's submitted record", keep)
	}
	if err := l.Compact(keep); err != nil {
		t.Fatal(err)
	}
	after, err := l.Size()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("compaction did not shrink the log: %d → %d bytes", before, after)
	}
	if n := l.AppendedSinceCompact(); n != 0 {
		t.Errorf("AppendedSinceCompact after Compact = %d, want 0", n)
	}
	// Appends continue on the compacted log.
	appendT(t, l, Record{Op: OpDone, JobID: "j2", Seq: 2})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l3, recs3 := openT(t, dir)
	defer l3.Close()
	if len(recs3) != 2 {
		t.Fatalf("replayed %d records after compaction, want 2: %+v", len(recs3), recs3)
	}
	if recs3[0].JobID != "j2" || recs3[0].Op != OpSubmitted {
		t.Errorf("first surviving record %+v, want j2 submitted", recs3[0])
	}
	if len(Live(recs3)) != 0 {
		t.Errorf("j2 finished post-compaction but Live still lists it")
	}
}

func TestLiveOrderAndDedup(t *testing.T) {
	recs := []Record{
		// Out-of-lifecycle-order interleaving: a legacy started
		// record lands before submitted (concurrent writers),
		// terminal in the middle.
		{Op: legacyStarted, JobID: "j2", Seq: 2},
		submitted("j1", 1),
		{Op: OpCanceled, JobID: "j1", Seq: 1},
		submitted("j2", 2),
		submitted("j3", 3),
		{Op: legacyRetrying, JobID: "j3", Seq: 3},
		submitted("j2", 2), // duplicate (replayed journal re-journaled)
	}
	live := Live(recs)
	if len(live) != 2 || live[0].JobID != "j2" || live[1].JobID != "j3" {
		t.Fatalf("Live = %+v, want [j2 j3]", live)
	}
	if got := MaxSeq(recs); got != 3 {
		t.Errorf("MaxSeq = %d, want 3", got)
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "journal")
	l, recs := openT(t, dir)
	defer l.Close()
	if len(recs) != 0 {
		t.Fatalf("fresh nested journal replayed %d records", len(recs))
	}
	appendT(t, l, submitted("j1", 1))
}

func TestOpenBadDir(t *testing.T) {
	if _, _, err := Open("/dev/null/not-a-dir"); err == nil {
		t.Error("Open under a non-directory must fail")
	}
}

// A record longer than the old 16 MiB scan limit replays, and so does
// every record after it: the writer and the scanner share one bound.
func TestJournalLargeRecordReplays(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	spec := `{"kind":"faultsim","circuit":"s27","tests":["` + strings.Repeat("0", 17<<20) + `"]}`
	big := Record{Op: OpSubmitted, JobID: "j1", Seq: 1, Spec: json.RawMessage(spec)}
	appendT(t, l, big, submitted("j2", 2))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := openT(t, dir)
	defer l2.Close()
	if len(recs) != 2 || recs[0].JobID != "j1" || len(recs[0].Spec) != len(spec) || recs[1].JobID != "j2" {
		t.Fatalf("replayed %d records, want j1 (%d-byte spec) and j2", len(recs), len(spec))
	}
}

// Size returns the log's current byte size.
func (l *Log) Size() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, fmt.Errorf("journal: closed")
	}
	st, err := l.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
