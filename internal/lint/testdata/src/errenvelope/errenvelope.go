// Package errenvelopefix is the pdflint fixture for the errenvelope
// analyzer: engine handlers answer errors through the unified
// envelope helper, never http.Error.
package errenvelopefix

import (
	"encoding/json"
	"net/http"
)

// writeEnvelope is the fixture's stand-in for engine.WriteError.
func writeEnvelope(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]any{"code": code, "message": msg},
	})
}

// BadHandler bypasses the envelope.
func BadHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed) // want `http.Error bypasses the /v1 error envelope`
		return
	}
	w.WriteHeader(http.StatusOK)
}

// GoodHandler answers through the envelope.
func GoodHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeEnvelope(w, http.StatusMethodNotAllowed, "invalid_spec", "method not allowed")
		return
	}
	w.WriteHeader(http.StatusOK)
}
