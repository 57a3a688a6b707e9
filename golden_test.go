package rtmdm

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rtmdm/internal/expr"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_tables.csv from the current code")

// TestGoldenQuickTables is the byte-identity gate: the quick tables
// (rtmdm-bench -all -quick -csv) must match the committed baseline, so a
// refactor or performance change that moves any published number fails
// tier-1. Refresh deliberately with `make golden`.
//
// The gate runs on amd64 only: the Go compiler may fuse multiply-add on
// other architectures (arm64, ppc64, s390x), which moves the last digit
// of some float columns without any code change.
func TestGoldenQuickTables(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden quick tables are pinned on amd64 (GOARCH=%s may fuse multiply-add)", runtime.GOARCH)
	}
	var got bytes.Buffer
	cfg := expr.QuickConfig()
	for _, e := range expr.All() {
		tb, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tb.CSV(&got)
	}
	golden := filepath.Join("testdata", "quick_tables.csv")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with make golden)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("quick tables drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}
