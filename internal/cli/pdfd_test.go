package cli

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestPDFDBadFlags(t *testing.T) {
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFD(a, o, e)
	}, "-nosuchflag"); err == nil {
		t.Error("unknown flag must fail")
	}
	// Removed flags are usage errors: jobs run once (no retry budget),
	// every job is traced under fixed bounds, and the ring's vnode count
	// is a constant. The address is unlistenable, so a daemon that took
	// a flag fails fast instead of serving.
	for _, flag := range []string{"-max-retries", "-trace-spans", "-trace-sample", "-trace-buffer", "-vnodes"} {
		if _, stderr, err := run(t, func(a []string, o, e *bytes.Buffer) error {
			return PDFD(a, o, e)
		}, flag, "2", "-addr", "999.999.999.999:0"); err == nil || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Errorf("removed %s flag = %v, stderr %q; want a usage error", flag, err, stderr)
		}
	}
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFD(a, o, e)
	}, "-addr", "999.999.999.999:0"); err == nil {
		t.Error("unlistenable address must fail")
	}
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFD(a, o, e)
	}, "-journal", "/dev/null/not-a-dir", "-addr", "127.0.0.1:0"); err == nil {
		t.Error("unusable journal dir must fail")
	}
}

// syncBuffer is a bytes.Buffer safe for the PDFD goroutine and the
// test to share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`msg="pdfd listening" addr=(\S+)`)

// startPDFD boots the daemon on an ephemeral port and returns its base
// URL and a channel carrying its exit error.
func startPDFD(t *testing.T, out *syncBuffer, extraArgs ...string) (string, chan error) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, extraArgs...)
	exit := make(chan error, 1)
	go func() {
		var errb bytes.Buffer
		exit <- PDFD(args, out, &errb)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], exit
		}
		select {
		case err := <-exit:
			t.Fatalf("pdfd exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("pdfd never started listening:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stopPDFD delivers the shutdown signal and waits for a clean exit.
func stopPDFD(t *testing.T, exit chan error) {
	t.Helper()
	// PDFD traps SIGTERM via signal.Notify, so signaling our own
	// process reaches its handler without killing the test binary.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("pdfd exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pdfd did not exit on SIGTERM")
	}
}

// Full daemon lifecycle: boot with a journal, run a job over HTTP,
// drain on SIGTERM, boot again on the same journal — nothing left to
// replay, and the new flags all round-trip.
func TestPDFDLifecycleWithJournal(t *testing.T) {
	dir := t.TempDir()
	var out syncBuffer
	base, exit := startPDFD(t, &out,
		"-journal", dir, "-shed-watermark", "32", "-drain", "30s")
	if !strings.Contains(out.String(), `msg="journal replayed"`) || !strings.Contains(out.String(), "jobs=0") {
		t.Errorf("fresh journal replay record missing:\n%s", out.String())
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"enrich","circuit":"s27","np0":10,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || v.ID == "" {
		t.Fatalf("submit = %d %+v", resp.StatusCode, v)
	}
	resp, err = http.Get(base + "/v1/jobs/" + v.ID + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	var done struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if done.Status != "done" {
		t.Fatalf("job status = %s, want done", done.Status)
	}

	stopPDFD(t, exit)
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Errorf("graceful drain banner missing:\n%s", out.String())
	}

	// Second incarnation on the same journal: the finished job must
	// not replay.
	var out2 syncBuffer
	_, exit2 := startPDFD(t, &out2, "-journal", dir)
	if !strings.Contains(out2.String(), `msg="journal replayed"`) || !strings.Contains(out2.String(), "jobs=0") {
		t.Errorf("clean journal replayed jobs:\n%s", out2.String())
	}
	stopPDFD(t, exit2)
}

var debugListenRE = regexp.MustCompile(`msg="pprof debug server listening" addr=(\S+)`)

// The observability smoke test (also run by `make obs-smoke`): boot
// the daemon, run a compacted c17 enrichment job, and assert that the
// Prometheus exposition and the job's span timeline are well-formed
// and that pprof answers on the debug listener.
func TestObsSmoke(t *testing.T) {
	var out syncBuffer
	base, exit := startPDFD(t, &out, "-debug-addr", "127.0.0.1:0", "-log-level", "debug")

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"enrich","circuit":"c17","np0":4,"seed":1,"collapse":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || v.ID == "" {
		t.Fatalf("submit = %d %+v", resp.StatusCode, v)
	}
	resp, err = http.Get(base + "/v1/jobs/" + v.ID + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	var done struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if done.Status != "done" {
		t.Fatalf("job status = %s (%s), want done", done.Status, done.Error)
	}

	// /metrics: Prometheus text with at least one coherent histogram.
	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(resp.Body)
	resp.Body.Close()
	metrics := mb.String()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE pdfd_jobs_done_total counter",
		"# TYPE pdfd_stage_duration_seconds histogram",
		`pdfd_stage_duration_seconds_bucket{stage="`,
		`le="+Inf"`,
		"pdfd_stage_duration_seconds_count",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// The span timeline covers the pipeline stage names.
	resp, err = http.Get(base + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Trace struct {
			Spans []struct {
				Name   string `json:"name"`
				Parent int    `json:"parent"`
			} `json:"spans"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	have := map[string]bool{}
	for _, s := range tr.Trace.Spans {
		have[s.Name] = true
	}
	for _, name := range []string{"job", "pathenum", "generation", "compaction", "simulation"} {
		if !have[name] {
			t.Errorf("trace missing %q span: %v", name, have)
		}
	}

	// pprof answers on the debug listener, not the API one.
	m := debugListenRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no pprof listener record:\n%s", out.String())
	}
	resp, err = http.Get("http://" + m[1] + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index = %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("pprof leaked onto the API listener")
	}

	// The access log correlates requests, the engine log the job.
	logs := out.String()
	for _, want := range []string{"http request", "request_id=", "job_id=" + v.ID} {
		if !strings.Contains(logs, want) {
			t.Errorf("log stream missing %q:\n%s", want, logs)
		}
	}

	stopPDFD(t, exit)
}

// pdfatpg has no simulation knob any more: the removed -workers flag
// is rejected, and repeated runs print the same bytes.
func TestPDFATPGWorkersIdenticalOutput(t *testing.T) {
	pdfatpg := func(a []string, o, e *bytes.Buffer) error { return PDFATPG(a, o, e) }
	for _, extra := range [][]string{nil, {"-enrich"}} {
		base := append([]string{"-profile", "s27", "-np", "0", "-np0", "10"}, extra...)
		first, _, err := run(t, pdfatpg, base...)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := run(t, pdfatpg, base...)
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Errorf("rerun changed the output (%v):\n--- first ---\n%s--- again ---\n%s",
				extra, first, again)
		}
		if _, _, err := run(t, pdfatpg, append(base, "-workers", "8")...); err == nil {
			t.Errorf("removed -workers flag accepted (%v)", extra)
		}
	}
}

func TestPDFSimWorkersIdenticalOutput(t *testing.T) {
	dir := t.TempDir()
	testsFile := dir + "/tests.txt"
	if _, _, err := run(t, func(a []string, o, e *bytes.Buffer) error {
		return PDFATPG(a, o, e)
	}, "-profile", "s27", "-np", "0", "-np0", "10", "-tests", testsFile); err != nil {
		t.Fatal(err)
	}
	pdfsim := func(a []string, o, e *bytes.Buffer) error { return PDFSim(a, o, e) }
	args := []string{"-profile", "s27", "-np", "0", "-tests", testsFile, "-v"}
	var outs []string
	for range 2 {
		out, _, err := run(t, pdfsim, args...)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if outs[0] != outs[1] {
		t.Errorf("pdfsim rerun changed the output:\n--- first ---\n%s--- again ---\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "detected") {
		t.Errorf("missing detection summary:\n%s", outs[0])
	}
	if _, _, err := run(t, pdfsim, append(args, "-workers", "4")...); err == nil {
		t.Error("removed -workers flag accepted")
	}
}
