// Package durable is the one on-disk frame and the one atomic file
// replace shared by the job journal and the result store.
//
// A frame is a little-endian uint32 payload length, a little-endian
// uint32 CRC-32 (IEEE) of the payload, then the payload. MaxPayload
// bounds it on both sides: AppendHeader refuses a payload ReadFrame
// would reject, and ReadFrame rejects a larger length before
// allocating for it, so a garbage header costs no memory.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	// HeaderSize is the frame's byte overhead in front of the payload.
	HeaderSize = 8
	// MaxPayload bounds one frame's payload; the HTTP edge caps
	// request bodies at it too.
	MaxPayload = 64 << 20
	// TmpSuffix names the temporary file WriteFile installs from; a
	// crash between its write and its rename leaves one behind.
	TmpSuffix = ".tmp"
)

// AppendHeader appends the header of payload's frame to dst; the frame
// is that header followed by payload. A payload over MaxPayload is an
// error and leaves dst unchanged.
func AppendHeader(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return dst, fmt.Errorf("durable: %d-byte payload exceeds the %d-byte frame bound", len(payload), MaxPayload)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload)), nil
}

// ReadFrame reads one frame from r and returns its payload. It
// returns io.EOF when r ends before the frame starts, and another
// error for a frame that does not check out: torn, longer than
// MaxPayload, or failing its CRC.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF, or io.ErrUnexpectedEOF for a torn header
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxPayload {
		return nil, fmt.Errorf("durable: frame length %d exceeds the %d-byte bound", n, MaxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("durable: torn frame payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errors.New("durable: frame checksum mismatch")
	}
	return payload, nil
}

// WriteFile atomically replaces path with the concatenation of data:
// it writes path+TmpSuffix, fsyncs it, renames it over path and fsyncs
// the directory, so a crash leaves the old file or the new one, never
// a torn one. The temporary file is removed on every failure.
func WriteFile(path string, data ...[]byte) error {
	tmp := path + TmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, b := range data {
		if err == nil {
			_, err = f.Write(b)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash;
// failure is ignored (some filesystems refuse directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
