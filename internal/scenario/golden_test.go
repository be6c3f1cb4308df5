package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden scenario file")

// TestExampleScenariosGolden locks the rendered report and CSV of every
// shipped examples/scenarios/*.json at a short window against a
// committed golden file, so a refactor of the scenario, fleet or graph
// layers that moves a single byte of the documented examples fails
// here. Scenarios that set their own duration_ms keep it. Regenerate
// deliberately with
//
//	go test ./internal/scenario/ -run TestExampleScenariosGolden -update
func TestExampleScenariosGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	opt := experiments.Options{Duration: 20 * sim.Millisecond, Seed: 1}
	var b strings.Builder
	for _, f := range files {
		scs, err := LoadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, sc := range scs {
			res, err := sc.Run(opt)
			if err != nil {
				t.Fatalf("%s: %s: %v", f, sc.Name, err)
			}
			fmt.Fprintf(&b, "==== %s: %s ====\n%s\n", filepath.Base(f), sc.Name, res.Report())
			if err := res.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
			b.WriteByte('\n')
		}
	}
	got := []byte(b.String())

	path := filepath.Join("testdata", "golden_scenarios.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Drop the full rendering next to the golden so CI can upload it as
	// an artifact, as TestGoldenReports does.
	gotPath := filepath.Join("testdata", "golden_scenarios.got.txt")
	if err := os.WriteFile(gotPath, got, 0o644); err != nil {
		t.Logf("could not write %s: %v", gotPath, err)
	} else {
		t.Logf("full divergent rendering written to %s", gotPath)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("rendering diverges from golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	t.Fatal("rendering differs from golden (length only)")
}
