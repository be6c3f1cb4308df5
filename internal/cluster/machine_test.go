package cluster

import (
	"testing"

	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/workload"
)

// newMachine builds spec on one default-calibration kind machine at
// seed 1 — the 1×1 graph every single-machine point runs on — and
// returns it as a testFleet, whose accessors read its counters, with
// its one member.
func newMachine(t *testing.T, kind soc.ConfigKind, spec workload.Spec) (*testFleet, *member) {
	t.Helper()
	g, err := NewMachine(soc.DefaultConfig(kind), server.DefaultConfig(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	fl := &testFleet{Fleet: g.tiers[0].fl, g: g}
	return fl, fl.members[0]
}

// A tail slower than the old fixed 100ms drain cap must still be served:
// Run drains until every in-flight request completes.
func TestRunDrainsSlowTails(t *testing.T) {
	spec := workload.Spec{
		Name:        "slow-tail",
		Arrivals:    stats.Poisson{RateV: 100},
		Service:     stats.Deterministic{V: 0.15}, // 150ms on-core, per request
		Connections: 10,
		MemAccesses: 1,
	}
	fl, m := newMachine(t, soc.Cshallow, spec)
	fl.Run(20 * sim.Millisecond)
	if fl.Generated() == 0 {
		t.Fatal("no load generated")
	}
	if m.srv.Served() != fl.Generated() {
		t.Fatalf("served %d != generated %d: slow tail was abandoned", m.srv.Served(), fl.Generated())
	}
	if m.dropped != 0 {
		t.Fatalf("dropped %d, want 0", m.dropped)
	}
}

// When the backlog genuinely cannot clear within the drain cap, Run
// surfaces the leak through the dropped counter instead of losing it
// silently.
func TestRunSurfacesDroppedRequests(t *testing.T) {
	spec := workload.Spec{
		Name:        "stuck",
		Arrivals:    stats.Poisson{RateV: 10000},
		Service:     stats.Deterministic{V: 2 * drainCap.Seconds()}, // can never finish draining
		Connections: 10,
		MemAccesses: 1,
	}
	fl, m := newMachine(t, soc.Cshallow, spec)
	srv := m.srv
	fl.Run(sim.Millisecond)
	if fl.Dropped() == 0 {
		t.Fatal("drain cap tripped but nothing was dropped")
	}
	if srv.Served()+fl.Dropped() != fl.Generated() {
		t.Fatalf("served %d + dropped %d != generated %d",
			srv.Served(), fl.Dropped(), fl.Generated())
	}
	// Dropped is a snapshot of the latest Run, not an accumulator: a
	// second Run must not double-count the same stuck requests, and the
	// invariant must keep holding.
	fl.Run(sim.Millisecond)
	if srv.Served()+fl.Dropped() != fl.Generated() {
		t.Fatalf("after second Run: served %d + dropped %d != generated %d",
			srv.Served(), fl.Dropped(), fl.Generated())
	}
}

// TruncatedDrain separates "still draining at the cap" from "leaked
// forever": a request whose completion event is still queued when the
// drain cap trips is truncated, not leaked, and the counter must say so.
func TestTruncatedDrainDistinguishesSlowFromLeaked(t *testing.T) {
	spec := workload.Spec{
		Name:        "glacial",
		Arrivals:    stats.Poisson{RateV: 10000},
		Service:     stats.Deterministic{V: 2 * drainCap.Seconds()}, // outlives the cap
		Connections: 10,
		MemAccesses: 1,
	}
	fl, m := newMachine(t, soc.Cshallow, spec)
	fl.Run(sim.Millisecond)
	if m.dropped == 0 {
		t.Fatal("drain cap never tripped — test is vacuous")
	}
	// The glacial requests' completion events are still pending, so
	// every dropped request is a truncation, not a leak.
	if m.truncated != m.dropped {
		t.Fatalf("truncated %d != dropped %d: pending completions misread as leaks",
			m.truncated, m.dropped)
	}
}

// A clean drain reports no truncation.
func TestTruncatedDrainZeroOnCleanRuns(t *testing.T) {
	fl, m := newMachine(t, soc.CPC1A, workload.Memcached(20000))
	fl.Run(10 * sim.Millisecond)
	if m.srv.Served() != fl.Generated() {
		t.Fatalf("served %d != generated %d", m.srv.Served(), fl.Generated())
	}
	if m.truncated != 0 {
		t.Fatalf("truncated %d on a clean drain", m.truncated)
	}
}
