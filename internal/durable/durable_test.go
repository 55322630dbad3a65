package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// header returns a frame header claiming n payload bytes with CRC sum.
func header(n, sum uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, n), sum)
}

// appendFrame appends payload's whole frame to dst.
func appendFrame(t testing.TB, dst, payload []byte) []byte {
	t.Helper()
	dst, err := AppendHeader(dst, payload)
	if err != nil {
		t.Fatal(err)
	}
	return append(dst, payload...)
}

func TestFrameRoundTrip(t *testing.T) {
	var log []byte
	payloads := [][]byte{[]byte(`{"op":"submitted"}`), nil, bytes.Repeat([]byte("x"), 1<<16)}
	for _, p := range payloads {
		log = appendFrame(t, log, p)
	}
	r := bytes.NewReader(log)
	for i, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %d bytes, %v; want %d bytes", i, len(got), err, len(want))
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("ReadFrame at the end = %v, want io.EOF", err)
	}
}

// The bound holds on both sides: the writer refuses a payload the
// reader would reject, and the reader rejects a larger claimed length
// without allocating for it.
func TestFrameBound(t *testing.T) {
	dst := []byte("keep")
	got, err := AppendHeader(dst, make([]byte, MaxPayload+1))
	if err == nil || string(got) != "keep" {
		t.Fatalf("AppendHeader over the bound = %q, %v; want dst unchanged and an error", got, err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ReadFrame(bytes.NewReader(append(header(0x7fffffff, 0), "short"...)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadFrame accepted a 0x7fffffff claim")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("ReadFrame allocated %d bytes for a rejected claim", d)
	}
}

func TestReadFrameCorrupt(t *testing.T) {
	good := appendFrame(t, nil, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	for name, data := range map[string][]byte{
		"torn header":   good[:5],
		"torn payload":  good[:len(good)-1],
		"crc mismatch":  flipped,
		"over bound":    header(MaxPayload+1, 0),
		"zero with crc": header(0, 1),
	} {
		if p, err := ReadFrame(bytes.NewReader(data)); err == nil || err == io.EOF {
			t.Errorf("%s: ReadFrame = %q, %v; want a corrupt-frame error", name, p, err)
		}
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry")
	for _, data := range []string{"first", "second, longer"} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("after WriteFile(%q) the file holds %q, %v", data, got, err)
		}
	}

	// Parts are written in order.
	if err := WriteFile(path, []byte("head|"), nil, []byte("body")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "head|body" {
		t.Fatalf("after WriteFile of three parts the file holds %q, %v", got, err)
	}

	// A failed rename (the target is a non-empty directory) leaves the
	// target alone and no temporary file behind.
	target := filepath.Join(dir, "busy")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("x")); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	if _, err := os.Stat(target + TmpSuffix); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind after a failed rename: %v", err)
	}
	if st, err := os.Stat(target); err != nil || !st.IsDir() {
		t.Errorf("failed WriteFile disturbed the target: %v", err)
	}
}

// FuzzFrame: every payload round-trips, and on arbitrary bytes
// ReadFrame never panics and never returns a payload whose length or
// CRC disagrees with its header.
func FuzzFrame(f *testing.F) {
	good := appendFrame(f, nil, []byte(`{"op":"done","job":"j1"}`))
	f.Add(good)
	f.Add(good[:6])                  // torn header
	f.Add(header(0, 0))              // zero length
	f.Add(header(MaxPayload+1, 0))   // length of bound+1
	f.Add(append(good, good[:9]...)) // a frame, then a torn one
	f.Add(header(3, crc32.ChecksumIEEE([]byte("abc"))))
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := appendFrame(t, nil, data)
		if got, err := ReadFrame(bytes.NewReader(frame)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip of %d bytes = %d bytes, %v", len(data), len(got), err)
		}

		p, err := ReadFrame(bytes.NewReader(data))
		if (err == io.EOF) != (len(data) == 0) {
			t.Fatalf("ReadFrame of %d bytes = %v; io.EOF is for empty input only", len(data), err)
		}
		if err != nil {
			return
		}
		if uint32(len(p)) != binary.LittleEndian.Uint32(data[0:4]) ||
			crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(data[4:8]) {
			t.Fatalf("ReadFrame returned a %d-byte payload its header does not vouch for", len(p))
		}
	})
}
