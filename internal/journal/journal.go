// Package journal is the engine's durable job journal: an append-only,
// CRC-checked write-ahead log of job intent, one internal/durable frame
// per JSON-encoded Record. A job gets two records: submitted, carrying
// its Spec, and one terminal record (done, failed or canceled). Jobs
// are seed-deterministic, so that is all a restart needs: it re-runs
// every submitted job without a terminal record. Opening a journal
// replays it, truncating a torn or corrupt tail (the expected artifact
// of a crash mid-write) instead of erroring; Live distills the
// replayed records into the jobs a restarted engine must re-enqueue;
// Compact rewrites the log to just those, bounding its growth.
// Journals written when the engine also recorded started, stage and
// retrying ops still replay: Live skips every op that is neither
// submitted nor terminal.
//
// The two records of one job are appended by concurrent writers
// (submitter, worker), so a terminal record may land before its
// submitted record; replay is order-insensitive (a terminal record
// retires its job wherever it sits).
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/durable"
)

// Op is a journaled job transition.
type Op string

// The journaled transitions.
const (
	OpSubmitted Op = "submitted" // job accepted; Spec and Seq recorded
	OpDone      Op = "done"      // terminal: result produced (Digest = cache key)
	OpFailed    Op = "failed"    // terminal: the run failed or panicked
	OpCanceled  Op = "canceled"  // terminal: canceled by a caller
)

// Terminal reports whether the op retires its job: a job whose record
// stream contains a terminal op is not replayed.
func (o Op) Terminal() bool { return o == OpDone || o == OpFailed || o == OpCanceled }

// Record is one journal entry. Op and JobID are always set; Spec only
// on OpSubmitted, Digest only on OpDone.
type Record struct {
	Op     Op              `json:"op"`
	JobID  string          `json:"job"`
	Seq    int64           `json:"seq,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Digest string          `json:"digest,omitempty"`
}

const fileName = "journal.wal"

// Log is an open journal. All methods are safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	appended int // records appended since Open or the last Compact
}

// Open opens (creating as needed) the journal in dir and replays it,
// returning the decoded records. A torn or corrupt tail — short
// header, short payload, CRC mismatch, undecodable JSON — is
// truncated away so appends resume from the last intact record; it is
// recovery, not an error.
func Open(dir string) (*Log, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, fileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs, valid, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if st.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating corrupt tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Log{path: path, f: f}, recs, nil
}

// scan decodes records from the start of f, stopping at the first
// frame that does not check out and reporting the byte offset of the
// end of the last intact record. Only I/O errors other than EOF are
// returned as errors.
func scan(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(f)
	var (
		recs  []Record
		valid int64
	)
	for {
		payload, err := durable.ReadFrame(br)
		if err != nil {
			return recs, valid, nil // clean end, torn or corrupt frame
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, valid, nil // checksummed but undecodable
		}
		recs = append(recs, rec)
		valid += int64(durable.HeaderSize + len(payload))
	}
}

// appendRecord appends the frame of r to dst.
func appendRecord(dst []byte, r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err == nil {
		dst, err = durable.AppendHeader(slices.Grow(dst, durable.HeaderSize+len(payload)), payload)
	}
	if err != nil {
		return dst, fmt.Errorf("journal: %w", err)
	}
	return append(dst, payload...), nil
}

// Append writes one record and syncs it to stable storage.
func (l *Log) Append(r Record) error {
	frame, err := appendRecord(nil, r)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	l.appended++
	return nil
}

// AppendedSinceCompact returns the records appended since Open or the
// last successful Compact; callers use it to pace compaction.
func (l *Log) AppendedSinceCompact() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Compact atomically replaces the log's contents with keep (see
// durable.WriteFile), so a crash at any point leaves either the old
// or the new log intact.
func (l *Log) Compact(keep []Record) error {
	var buf []byte
	for _, r := range keep {
		var err error
		if buf, err = appendRecord(buf, r); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if err := durable.WriteFile(l.path, buf); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	// The old handle now points at the unlinked inode; reopen for
	// appending at the end of the compacted log.
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopening after compact: %w", err)
	}
	l.f.Close()
	l.f = f
	l.appended = 0
	return nil
}

// Close syncs and closes the log. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Live distills replayed records into the OpSubmitted records of jobs
// with no terminal record, in original submission order — exactly the
// set a restarted engine must re-enqueue, and the set Compact keeps.
func Live(recs []Record) []Record {
	terminal := make(map[string]bool)
	for _, r := range recs {
		if r.Op.Terminal() {
			terminal[r.JobID] = true
		}
	}
	var out []Record
	seen := make(map[string]bool)
	for _, r := range recs {
		if r.Op == OpSubmitted && !terminal[r.JobID] && !seen[r.JobID] {
			seen[r.JobID] = true
			out = append(out, r)
		}
	}
	return out
}

// MaxSeq returns the highest Seq across recs, for restoring an
// engine's job-ID counter past every journaled job.
func MaxSeq(recs []Record) int64 {
	var max int64
	for _, r := range recs {
		if r.Seq > max {
			max = r.Seq
		}
	}
	return max
}
