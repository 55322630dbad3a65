package obs

import (
	"context"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTraceContext(true)
	if !tc.Valid() {
		t.Fatalf("NewTraceContext minted invalid identity: %+v", tc)
	}
	hdr := tc.Traceparent()
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("Traceparent() = %q, want 00-...-01", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected own output", hdr)
	}
	if got != tc {
		t.Fatalf("round trip: got %+v, want %+v", got, tc)
	}

	unsampled := NewTraceContext(false)
	got, ok = ParseTraceparent(unsampled.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got, ok)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("canonical spec example rejected")
	}
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",       // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-xx", // 00 with extra field
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",    // all-zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",    // all-zero span id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",    // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01",      // short trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7zz-01",  // non-hex span id
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // non-hex version
	}
	for _, s := range bad {
		if tc, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted as %+v", s, tc)
		}
	}
	// Future versions with extra fields parse leniently.
	future := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"
	if tc, ok := ParseTraceparent(future); !ok || !tc.Sampled {
		t.Errorf("future-version header rejected: %+v ok=%v", tc, ok)
	}
}

func TestWithTraceContext(t *testing.T) {
	if _, ok := TraceContextFrom(context.Background()); ok {
		t.Fatal("empty context reported a trace identity")
	}
	tc := NewTraceContext(true)
	ctx := WithTraceContext(context.Background(), tc)
	got, ok := TraceContextFrom(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceContextFrom = %+v ok=%v, want %+v", got, ok, tc)
	}
	// Invalid identities are not reported.
	ctx = WithTraceContext(context.Background(), TraceContext{})
	if _, ok := TraceContextFrom(ctx); ok {
		t.Fatal("invalid identity reported from context")
	}
}
