package engine_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestRegistryFamilyGolden pins the ordered "# TYPE" lines, that is the
// name, kind and registration order of every metric family, of the
// pdfd engine's registry (with a durable store, so its families are
// included) and of a coordinator's registry (with replication).
func TestRegistryFamilyGolden(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Workers: 1, Store: st})
	defer e.Close()
	c, err := cluster.New(cluster.Config{
		Backends:          []cluster.BackendConf{{Name: "b0", URL: "http://127.0.0.1:1"}, {Name: "b1", URL: "http://127.0.0.1:2"}},
		ReplicationFactor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		file string
		reg  *obs.Registry
	}{
		{"families_pdfd.golden", e.Registry()},
		{"families_coordinator.golden", c.Registry()},
	} {
		var b strings.Builder
		if err := tc.reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var types strings.Builder
		for _, line := range strings.SplitAfter(b.String(), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				types.WriteString(line)
			}
		}
		path := filepath.Join("testdata", tc.file)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if types.String() != string(want) {
			t.Errorf("%s differs from the golden:\n--- got ---\n%s--- want ---\n%s", path, types.String(), want)
		}
	}
}
