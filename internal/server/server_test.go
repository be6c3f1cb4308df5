package server

import (
	"testing"

	"agilepkgc/internal/pmu"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/workload"
)

func runServer(t *testing.T, kind soc.ConfigKind, spec workload.Spec, d sim.Duration) *Server {
	t.Helper()
	sys := soc.New(soc.DefaultConfig(kind))
	srv := New(sys, DefaultConfig(), spec)
	srv.Run(d)
	return srv
}

func TestServesAllRequests(t *testing.T) {
	srv := runServer(t, soc.Cshallow, workload.Memcached(50000), 50*sim.Millisecond)
	if srv.Served() == 0 {
		t.Fatal("nothing served")
	}
	if srv.Served() != srv.Generated() {
		t.Fatalf("served %d != generated %d (lost requests)", srv.Served(), srv.Generated())
	}
	// ~2500 requests in 50ms at 50k QPS.
	if srv.Served() < 2200 || srv.Served() > 2800 {
		t.Fatalf("served %d, want ~2500", srv.Served())
	}
}

func TestLatencyIncludesNetworkFloor(t *testing.T) {
	srv := runServer(t, soc.Cshallow, workload.Memcached(10000), 50*sim.Millisecond)
	h := srv.Latencies()
	// Minimum possible: network 117us + NIC + wake 2us + service floor.
	if h.Min() < 117e-6 {
		t.Fatalf("min latency %v below the network floor", h.Min())
	}
	// At low load on Cshallow, mean should be ~117 + ~5 + ~16 + wake ~2 ≈ 140us.
	if m := h.Mean(); m < 125e-6 || m > 175e-6 {
		t.Fatalf("mean latency %v, want ~140us", m)
	}
}

// Cdeep must exhibit visibly worse latency than Cshallow at low load —
// paper Fig. 5's headline.
func TestCdeepLatencyPenalty(t *testing.T) {
	shallow := runServer(t, soc.Cshallow, workload.Memcached(20000), 100*sim.Millisecond)
	deep := runServer(t, soc.Cdeep, workload.Memcached(20000), 100*sim.Millisecond)
	ms, md := shallow.Latencies().Mean(), deep.Latencies().Mean()
	if md <= ms*1.2 {
		t.Fatalf("Cdeep mean %v should be well above Cshallow %v (CC6 wakes + powersave)", md, ms)
	}
	ps, pd := shallow.Latencies().Quantile(0.99), deep.Latencies().Quantile(0.99)
	if pd <= ps {
		t.Fatalf("Cdeep p99 %v should exceed Cshallow %v", pd, ps)
	}
}

// A CPC1A system under load must still serve everything, ending in PC1A
// when idle, and its latency must be within a whisker of Cshallow —
// paper Fig. 7(c): < 0.1% degradation.
func TestPC1ALatencyImpactNegligible(t *testing.T) {
	spec := workload.Memcached(50000)
	shallow := runServer(t, soc.Cshallow, spec, 200*sim.Millisecond)
	apc := runServer(t, soc.CPC1A, spec, 200*sim.Millisecond)

	if apc.Served() != apc.Generated() {
		t.Fatal("APC system lost requests")
	}
	ms, ma := shallow.Latencies().Mean(), apc.Latencies().Mean()
	rel := (ma - ms) / ms
	if rel > 0.002 {
		t.Fatalf("PC1A latency impact %.4f%%, paper claims <0.1%% (means %v vs %v)", rel*100, ma, ms)
	}
	// And the system actually used PC1A.
	sys := apc.System()
	if sys.APMU.Entries(pmu.PC1A) == 0 {
		t.Fatal("APMU never entered PC1A under low load")
	}
	if sys.PackageState() != pmu.PC1A {
		t.Fatalf("final state %v, want PC1A after drain", sys.PackageState())
	}
}

// Power ordering under identical load: CPC1A strictly below Cshallow.
func TestPC1ASavesPowerUnderLoad(t *testing.T) {
	spec := workload.Memcached(20000)

	sysS := soc.New(soc.DefaultConfig(soc.Cshallow))
	srvS := New(sysS, DefaultConfig(), spec)
	snapS := sysS.Meter.Snapshot()
	srvS.Run(100 * sim.Millisecond)
	powS := snapS.AverageTotal()

	sysA := soc.New(soc.DefaultConfig(soc.CPC1A))
	srvA := New(sysA, DefaultConfig(), spec)
	snapA := sysA.Meter.Snapshot()
	srvA.Run(100 * sim.Millisecond)
	powA := snapA.AverageTotal()

	if powA >= powS {
		t.Fatalf("CPC1A power %.2fW should be below Cshallow %.2fW", powA, powS)
	}
	saving := (powS - powA) / powS
	if saving < 0.10 {
		t.Fatalf("saving %.1f%% at 20k QPS, expect >10%%", saving*100)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, float64) {
		srv := runServer(t, soc.CPC1A, workload.Memcached(30000), 30*sim.Millisecond)
		return srv.Served(), srv.Latencies().Mean()
	}
	s1, m1 := run()
	s2, m2 := run()
	if s1 != s2 || m1 != m2 {
		t.Fatalf("same-seed runs diverged: %d/%v vs %d/%v", s1, m1, s2, m2)
	}
}

func TestHighLoadSaturation(t *testing.T) {
	// 600k QPS at ~21us/req on 10 cores is ~126% offered load: the
	// system must saturate (served < generated) without deadlocking.
	sys := soc.New(soc.DefaultConfig(soc.Cshallow))
	srv := New(sys, DefaultConfig(), workload.Memcached(600000))
	srv.Run(50 * sim.Millisecond)
	if srv.Served() == 0 {
		t.Fatal("nothing served at saturation")
	}
	util := 0.0
	for _, c := range sys.Cores {
		_ = c
		util++
	}
	// p99 should be far above the unloaded floor.
	if srv.Latencies().Quantile(0.99) < 500e-6 {
		t.Fatalf("p99 %v at overload, want heavy queueing", srv.Latencies().Quantile(0.99))
	}
}

func TestClosedLoopServer(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.CPC1A))
	srv := NewClosedLoop(sys, DefaultConfig())
	var cl *workload.ClosedLoopClient
	cl = workload.SysbenchOLTP(sys.Engine, 16, 1e-3, 1, func(r *workload.Request) {
		srv.Submit(r, func() { cl.Release(r) })
	})
	cl.Start(0)
	srv.Run(100 * sim.Millisecond)
	cl.Stop()
	srv.Run(10 * sim.Millisecond)

	if srv.Served() == 0 || cl.Completed() == 0 {
		t.Fatal("closed-loop server served nothing")
	}
	if srv.Served() < cl.Completed() {
		t.Fatalf("served %d < completed %d", srv.Served(), cl.Completed())
	}
	if srv.Generated() != 0 {
		t.Fatal("closed-loop server has no open-loop generator")
	}
	// Latency floor still includes the network component.
	if srv.Latencies().Min() < 117e-6 {
		t.Fatalf("min latency %v below network floor", srv.Latencies().Min())
	}
}

// Timer ticks erode the PC1A opportunity: a tickful kernel must show
// strictly less PC1A residency than a tickless one at the same load.
func TestTimerTicksErodePC1A(t *testing.T) {
	residency := func(tickHz float64) float64 {
		sys := soc.New(soc.DefaultConfig(soc.CPC1A))
		cfg := DefaultConfig()
		cfg.TimerTickHz = tickHz
		cfg.TickKernelTime = 5 * sim.Microsecond
		srv := New(sys, cfg, workload.Memcached(10000))
		srv.Run(100 * sim.Millisecond)
		return float64(sys.APMU.Residency(pmu.PC1A)) / float64(sys.Engine.Now())
	}
	tickless := residency(0)
	tickful := residency(250)
	if tickful >= tickless {
		t.Fatalf("250Hz ticks should erode PC1A residency: %v vs %v", tickful, tickless)
	}
	if tickless-tickful < 0.01 {
		t.Fatalf("erosion implausibly small: %v vs %v", tickful, tickless)
	}
	// But the system still functions and reaches PC1A between ticks.
	if tickful < 0.3 {
		t.Fatalf("tickful residency %v collapsed entirely", tickful)
	}
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
	sys := soc.New(soc.DefaultConfig(soc.Cshallow))
	srv := New(sys, DefaultConfig(), spec)
	srv.Run(20 * sim.Millisecond)
	if srv.Generated() == 0 {
		t.Fatal("no load generated")
	}
	if srv.Served() != srv.Generated() {
		t.Fatalf("served %d != generated %d: slow tail was abandoned", srv.Served(), srv.Generated())
	}
	if srv.Dropped() != 0 {
		t.Fatalf("dropped %d, want 0", srv.Dropped())
	}
}

// When the backlog genuinely cannot clear within the drain cap, Run
// surfaces the leak through Dropped instead of losing it silently.
func TestRunSurfacesDroppedRequests(t *testing.T) {
	spec := workload.Spec{
		Name:        "stuck",
		Arrivals:    stats.Poisson{RateV: 10000},
		Service:     stats.Deterministic{V: 2 * DrainCap.Seconds()}, // can never finish draining
		Connections: 10,
		MemAccesses: 1,
	}
	sys := soc.New(soc.DefaultConfig(soc.Cshallow))
	srv := New(sys, DefaultConfig(), spec)
	srv.Run(sim.Millisecond)
	if srv.Dropped() == 0 {
		t.Fatal("drain cap tripped but Dropped() == 0")
	}
	if srv.Served()+srv.Dropped() != srv.Generated() {
		t.Fatalf("served %d + dropped %d != generated %d",
			srv.Served(), srv.Dropped(), srv.Generated())
	}
	// Dropped is a snapshot of the latest Run, not an accumulator: a
	// second Run must not double-count the same stuck requests, and the
	// invariant must keep holding.
	srv.Run(sim.Millisecond)
	if srv.Served()+srv.Dropped() != srv.Generated() {
		t.Fatalf("after second Run: served %d + dropped %d != generated %d",
			srv.Served(), srv.Dropped(), srv.Generated())
	}
}

// TruncatedDrain separates "still draining at the cap" from "leaked
// forever": a request whose completion event is still queued when the
// DrainCap trips is truncated, not leaked, and the counter must say so.
func TestTruncatedDrainDistinguishesSlowFromLeaked(t *testing.T) {
	spec := workload.Spec{
		Name:        "glacial",
		Arrivals:    stats.Poisson{RateV: 10000},
		Service:     stats.Deterministic{V: 2 * DrainCap.Seconds()}, // outlives the cap
		Connections: 10,
		MemAccesses: 1,
	}
	sys := soc.New(soc.DefaultConfig(soc.Cshallow))
	srv := New(sys, DefaultConfig(), spec)
	srv.Run(sim.Millisecond)
	if srv.Dropped() == 0 {
		t.Fatal("drain cap never tripped — test is vacuous")
	}
	// The glacial requests' completion events are still pending, so
	// every dropped request is a truncation, not a leak.
	if srv.TruncatedDrain() != srv.Dropped() {
		t.Fatalf("truncated %d != dropped %d: pending completions misread as leaks",
			srv.TruncatedDrain(), srv.Dropped())
	}
}

// A clean drain reports no truncation.
func TestTruncatedDrainZeroOnCleanRuns(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.CPC1A))
	srv := New(sys, DefaultConfig(), workload.Memcached(20000))
	srv.Run(10 * sim.Millisecond)
	if srv.Served() != srv.Generated() {
		t.Fatalf("served %d != generated %d", srv.Served(), srv.Generated())
	}
	if srv.TruncatedDrain() != 0 {
		t.Fatalf("truncated %d on a clean drain", srv.TruncatedDrain())
	}
}

// Closed-loop servers have no generator to stop, so Run must advance
// exactly the requested window and leave draining to the caller.
func TestClosedLoopRunAdvancesExactly(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.CPC1A))
	srv := NewClosedLoop(sys, DefaultConfig())
	var cl *workload.ClosedLoopClient
	cl = workload.SysbenchOLTP(sys.Engine, 8, 1e-3, 1, func(r *workload.Request) {
		srv.Submit(r, func() { cl.Release(r) })
	})
	cl.Start(0)
	srv.Run(30 * sim.Millisecond)
	if got := sys.Engine.Now(); got != 30*sim.Millisecond {
		t.Fatalf("closed-loop Run advanced to %v, want exactly 30ms", got)
	}
	cl.Stop()
	srv.Run(20 * sim.Millisecond) // flush the tail
	if cl.Completed() == 0 {
		t.Fatal("nothing completed")
	}
}
