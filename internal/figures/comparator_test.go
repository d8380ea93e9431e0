package figures

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestFig22And23Golden pins every value of the comparator figures exactly
// (shortest round-trip float formatting, one line per query and series) at
// the tiny scale. The Ocelot* columns come from the vectorized engine's scan
// and vector statistics, the CoGaDB columns from the bulk engine, so any
// change to either engine's scan path that moves a single byte or vector
// shows up here. Regenerate with
//
//	go test -run TestFig22And23Golden ./internal/figures/ -args -update-golden
func TestFig22And23Golden(t *testing.T) {
	var b strings.Builder
	for _, f := range []*Figure{Fig22(tiny), Fig23(tiny)} {
		for i, x := range f.X {
			for _, s := range f.Series {
				b.WriteString(f.ID + "\t" + x + "\t" + s.Label + "\t" +
					strconv.FormatFloat(s.Y[i], 'g', -1, 64) + "\n")
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "fig22_fig23.golden.tsv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got != string(want) {
		t.Fatalf("fig22/fig23 series drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
