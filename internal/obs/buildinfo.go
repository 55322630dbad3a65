package obs

import (
	"runtime"
	"runtime/debug"
)

// VersionInfo is the GET /v1/version payload and the label source of
// the build-info gauge, read once from the binary's embedded build
// metadata.
type VersionInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"vcs_revision,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

// Version reports the running binary's build identity from
// runtime/debug.ReadBuildInfo. Binaries built outside module mode
// (some test harnesses) report version "unknown".
func Version() VersionInfo {
	v := VersionInfo{Version: "unknown", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	if bi.Main.Version != "" {
		v.Version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		v.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			v.Revision = s.Value
		case "vcs.modified":
			v.Modified = s.Value == "true"
		}
	}
	return v
}

// RegisterBuildInfo registers the conventional constant-1
// pdfd_build_info{version,go_version} gauge on r, making fleet
// rollouts attributable in metrics (join any series against it by
// instance). Both the engine and the coordinator register it.
func RegisterBuildInfo(r *Registry) {
	v := Version()
	r.MustRegister(NewGaugeVecFunc("pdfd_build_info",
		"Build identity of the running binary; constant 1.",
		func(set func(float64, ...string)) { set(1, v.Version, v.GoVersion) },
		"version", "go_version"))
}
