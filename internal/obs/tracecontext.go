package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strings"
)

// W3C Trace Context (https://www.w3.org/TR/trace-context/) support:
// the fleet propagates a `traceparent` header on every hop so a job
// submitted at the coordinator edge and executed on a backend shares
// one trace identity end to end. Only the parts the fleet needs are
// implemented — version 00 of the header, the trace-id / parent-id
// pair, and the sampled flag — but unknown future versions are
// accepted leniently per the spec, and tracestate is ignored.

// TraceparentHeader is the W3C propagation header name.
const TraceparentHeader = "traceparent"

// TraceContext is one hop's identity in a distributed trace: which
// trace the work belongs to, which span is the caller, and whether the
// head made a sampling decision to keep it.
type TraceContext struct {
	TraceID string // 32 lowercase hex chars, not all-zero
	SpanID  string // 16 lowercase hex chars, not all-zero
	Sampled bool
}

// Valid reports whether the context carries a well-formed identity.
func (tc TraceContext) Valid() bool {
	return isLowerHex(tc.TraceID, 32) && !allZero(tc.TraceID) &&
		isLowerHex(tc.SpanID, 16) && !allZero(tc.SpanID)
}

// Traceparent renders the version-00 header value,
// 00-{trace-id}-{parent-id}-{trace-flags}. Invalid contexts render "".
func (tc TraceContext) Traceparent() string {
	if !tc.Valid() {
		return ""
	}
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-" + flags
}

// NewTraceContext mints a fresh root identity with the given sampling
// decision.
func NewTraceContext(sampled bool) TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8), Sampled: sampled}
}

// ParseTraceparent parses a traceparent header value. The second
// return is false for anything malformed (wrong field sizes, non-hex,
// all-zero IDs, version ff). Versions above 00 are accepted as long
// as the 00-shaped prefix parses, per the W3C forward-compatibility
// rule; extra fields they may append are ignored.
func ParseTraceparent(s string) (TraceContext, bool) {
	s = strings.TrimSpace(s)
	parts := strings.Split(s, "-")
	if len(parts) < 4 {
		return TraceContext{}, false
	}
	version, traceID, spanID, flags := parts[0], parts[1], parts[2], parts[3]
	if !isLowerHex(version, 2) || version == "ff" {
		return TraceContext{}, false
	}
	if version == "00" && len(parts) != 4 {
		return TraceContext{}, false
	}
	if !isLowerHex(flags, 2) {
		return TraceContext{}, false
	}
	tc := TraceContext{
		TraceID: traceID,
		SpanID:  spanID,
		Sampled: hexByte(flags)&0x01 != 0,
	}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// WithTraceContext returns a context carrying the trace identity.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey, tc)
}

// TraceContextFrom returns the trace identity carried by ctx, if any.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey).(TraceContext)
	return tc, ok && tc.Valid()
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// Fall back to the request-ID sequence; uniqueness within the
		// process still holds, which is what the buffer keys on.
		seq := reqSeq.Add(1)
		binary.BigEndian.PutUint64(b[len(b)-8:], seq|1)
	}
	return hex.EncodeToString(b)
}

func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

func hexByte(s string) byte {
	b, err := hex.DecodeString(s)
	if err != nil || len(b) == 0 {
		return 0
	}
	return b[0]
}
