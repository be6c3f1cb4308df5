package agilepkgc_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden examples file")

// TestExamplesGolden locks the stdout of every examples/ program against
// a committed golden file: the examples are the library's documented
// entry points, so a refactor of the assembly path under them that moves
// a single byte of their output fails here. Regenerate deliberately with
//
//	go test . -run TestExamplesGolden -update
func TestExamplesGolden(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no examples found")
	}
	var b strings.Builder
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		cmd := exec.Command("go", "run", "./examples/"+name)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("examples/%s: %v\n%s", name, err, stderr.String())
		}
		fmt.Fprintf(&b, "==== %s ====\n%s\n", name, out)
	}
	got := []byte(b.String())

	path := filepath.Join("testdata", "golden_examples.txt")
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
	// Drop the full output next to the golden so CI can upload it as an
	// artifact, as TestGoldenReports does.
	gotPath := filepath.Join("testdata", "golden_examples.got.txt")
	if err := os.WriteFile(gotPath, got, 0o644); err != nil {
		t.Logf("could not write %s: %v", gotPath, err)
	} else {
		t.Logf("full divergent output written to %s", gotPath)
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
			t.Fatalf("output diverges from golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	t.Fatal("output differs from golden (length only)")
}
