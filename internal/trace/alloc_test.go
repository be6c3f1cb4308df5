package trace_test

import (
	"testing"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/trace"
	"agilepkgc/internal/workload"
)

// TestIdleExitAllocs runs a traced 1×1 graph at low load, where nearly
// every request ends a full-idle period, and checks that the tracer's
// idle-exit bookkeeping allocates nothing: the wake probe is bound
// once in New, not built per exit. The bound leaves room for the
// occasional histogram or pool growth, far below one allocation per
// exit.
func TestIdleExitAllocs(t *testing.T) {
	g, err := cluster.NewMachine(soc.DefaultConfig(soc.CPC1A), server.DefaultConfig(), workload.Memcached(10000), 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := g.Member(0, 0)
	tr := trace.New(sys.Engine, sys.Cores)
	g.Run(20 * sim.Millisecond) // reach the steady-state pool depths

	exits := tr.IdlePeriodCount()
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() { g.Run(10 * sim.Millisecond) })
	exitsPerRun := float64(tr.IdlePeriodCount()-exits) / (runs + 1) // AllocsPerRun warms up once
	if exitsPerRun < 5 {
		t.Fatalf("only %.1f full-idle exits per run: the load no longer exercises the wake probe", exitsPerRun)
	}
	if allocs > exitsPerRun/10 {
		t.Errorf("%.1f allocs per run for %.1f full-idle exits, want far fewer than one per exit", allocs, exitsPerRun)
	}
}
