package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/msr"
	"agilepkgc/internal/power"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden readout file")

// TestReadoutGolden locks apctop's full readout — every configuration
// under load, plus an idle run — against a committed golden file, so a
// change to how the observer assembles and drives its machine that
// moves a single byte fails here. Regenerate deliberately with
//
//	go test ./cmd/apctop/ -run TestReadoutGolden -update
func TestReadoutGolden(t *testing.T) {
	var b strings.Builder
	for _, args := range [][]string{
		{"-config", "cpc1a", "-qps", "30000"},
		{"-config", "cshallow", "-qps", "30000"},
		{"-config", "cdeep", "-qps", "30000"},
		{"-config", "cpc1a", "-qps", "0"},
	} {
		args = append(args, "-intervals", "5", "-interval", "20ms")
		b.WriteString("==== apctop " + strings.Join(args, " ") + " ====\n")
		if err := run(&b, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		b.WriteByte('\n')
	}
	got := []byte(b.String())

	path := filepath.Join("testdata", "golden_apctop.txt")
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
	// Drop the full readout next to the golden so CI can upload it as
	// an artifact.
	gotPath := filepath.Join("testdata", "golden_apctop.got.txt")
	if err := os.WriteFile(gotPath, got, 0o644); err != nil {
		t.Logf("could not write %s: %v", gotPath, err)
	} else {
		t.Logf("full divergent readout written to %s", gotPath)
	}
	t.Fatalf("readout differs from golden:\n got:\n%s\nwant:\n%s", got, want)
}

// TestIntervalDivisorIsElapsedTime pins the readout's divisor to the
// engine time that elapsed over the interval. A loaded Graph.Run drains
// in-flight requests past its window, so dividing by the requested
// interval would overstate watts; the MSR-derived watts must instead
// match the simulator's own meter averaged over the same span, to
// within the RAPL energy unit.
func TestIntervalDivisorIsElapsedTime(t *testing.T) {
	g, err := cluster.NewMachine(soc.DefaultConfig(soc.CPC1A), server.DefaultConfig(), workload.Memcached(30000), 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := g.Member(0, 0)
	obs := &observer{sys: sys, mon: msr.NewMonitor(sys)}
	const dt = 20 * sim.Millisecond
	drained := 0
	for i := 0; i < 5; i++ {
		before, snap := obs.sample(), sys.Meter.Snapshot()
		g.Run(dt)
		after := obs.sample()
		if obs.err != nil {
			t.Fatal(obs.err)
		}
		if after.at-before.at > dt {
			drained++
		}
		r := obs.rates(before, after)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"pkg", r.pkgW, snap.AveragePower(power.Package)},
			{"dram", r.dramW, snap.AveragePower(power.DRAM)},
		} {
			tol := 2 * msr.EnergyUnitJoules / (after.at - before.at).Seconds()
			if math.Abs(c.got-c.want) > tol {
				t.Errorf("interval %d: %s %.4f W, meter over the elapsed %v reads %.4f W",
					i, c.name, c.got, after.at-before.at, c.want)
			}
		}
		if r.cc1Res > 1 || r.pc1aRes > 1 {
			t.Errorf("interval %d: residency CC1 %.3f PC1A %.3f above 1", i, r.cc1Res, r.pc1aRes)
		}
	}
	if drained == 0 {
		t.Fatal("no interval drained past its window: the test no longer tells the divisors apart")
	}
}

// TestSmokeOneInterval is the CI gate that keeps apctop from rotting
// silently (it used to have no tests at all, so only `go build ./...`
// ever touched it): run one short interval on every configuration and
// check the MSR-readout header plus a data row come out.
func TestSmokeOneInterval(t *testing.T) {
	for _, cfg := range []string{"cpc1a", "cshallow", "cdeep"} {
		var b strings.Builder
		err := run(&b, []string{"-config", cfg, "-intervals", "1", "-interval", "10ms"})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		out := b.String()
		if !strings.Contains(out, readoutHeader) {
			t.Errorf("%s: output missing the MSR-readout header %q:\n%s", cfg, readoutHeader, out)
		}
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		last := lines[len(lines)-1]
		if !strings.HasPrefix(last, "0 ") {
			t.Errorf("%s: missing interval-0 data row, got %q", cfg, last)
		}
		if !strings.Contains(lines[0], "apctop: "+map[string]string{
			"cpc1a": "C_PC1A", "cshallow": "Cshallow", "cdeep": "Cdeep"}[cfg]) {
			t.Errorf("%s: banner does not name the configuration: %q", cfg, lines[0])
		}
	}
}

// TestSmokeIdle covers the qps=0 path (no server, raw engine time).
func TestSmokeIdle(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-qps", "0", "-intervals", "1", "-interval", "5ms"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), readoutHeader) {
		t.Errorf("idle run missing header:\n%s", b.String())
	}
}

// TestHelpIsNotAnError: -h prints usage and succeeds, matching the
// conventional flag.ExitOnError exit status of 0.
func TestHelpIsNotAnError(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-h"}); err != nil {
		t.Fatalf("-h returned %v", err)
	}
	if !strings.Contains(b.String(), "Usage of apctop") {
		t.Errorf("-h did not print usage:\n%s", b.String())
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-config", "znver5"},
		{"-intervals", "0"},
		{"-interval", "-1ms"},
		{"-no-such-flag"},
	} {
		if err := run(&strings.Builder{}, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
