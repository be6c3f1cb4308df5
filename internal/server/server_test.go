package server_test

import (
	"testing"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// machine assembles one kind server serving spec at seed 1 the way every
// point runs: as a 1×1 graph.
func machine(t *testing.T, kind soc.ConfigKind, cfg server.Config, spec workload.Spec) (*cluster.Graph, *soc.System, *server.Server) {
	t.Helper()
	g, err := cluster.NewMachine(soc.DefaultConfig(kind), cfg, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, srv := g.Member(0, 0)
	return g, sys, srv
}

// runServer serves spec on a fresh kind machine for d of virtual time,
// plus the drain, and returns its server and generated-request count.
func runServer(t *testing.T, kind soc.ConfigKind, spec workload.Spec, d sim.Duration) (*server.Server, uint64) {
	t.Helper()
	g, _, srv := machine(t, kind, server.DefaultConfig(), spec)
	return srv, g.Measure(0, d).Tiers[0].Fleet.Generated
}

func TestServesAllRequests(t *testing.T) {
	srv, generated := runServer(t, soc.Cshallow, workload.Memcached(50000), 50*sim.Millisecond)
	if srv.Served() == 0 {
		t.Fatal("nothing served")
	}
	if srv.Served() != generated {
		t.Fatalf("served %d != generated %d (lost requests)", srv.Served(), generated)
	}
	// ~2500 requests in 50ms at 50k QPS.
	if srv.Served() < 2200 || srv.Served() > 2800 {
		t.Fatalf("served %d, want ~2500", srv.Served())
	}
}

func TestLatencyIncludesNetworkFloor(t *testing.T) {
	srv, _ := runServer(t, soc.Cshallow, workload.Memcached(10000), 50*sim.Millisecond)
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
	shallow, _ := runServer(t, soc.Cshallow, workload.Memcached(20000), 100*sim.Millisecond)
	deep, _ := runServer(t, soc.Cdeep, workload.Memcached(20000), 100*sim.Millisecond)
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
	shallow, _ := runServer(t, soc.Cshallow, spec, 200*sim.Millisecond)
	apc, generated := runServer(t, soc.CPC1A, spec, 200*sim.Millisecond)

	if apc.Served() != generated {
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

	gS, sysS, _ := machine(t, soc.Cshallow, server.DefaultConfig(), spec)
	snapS := sysS.Meter.Snapshot()
	gS.Run(100 * sim.Millisecond)
	powS := snapS.AverageTotal()

	gA, sysA, _ := machine(t, soc.CPC1A, server.DefaultConfig(), spec)
	snapA := sysA.Meter.Snapshot()
	gA.Run(100 * sim.Millisecond)
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
		srv, _ := runServer(t, soc.CPC1A, workload.Memcached(30000), 30*sim.Millisecond)
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
	g, _, srv := machine(t, soc.Cshallow, server.DefaultConfig(), workload.Memcached(600000))
	g.Run(50 * sim.Millisecond)
	if srv.Served() == 0 {
		t.Fatal("nothing served at saturation")
	}
	// p99 should be far above the unloaded floor.
	if srv.Latencies().Quantile(0.99) < 500e-6 {
		t.Fatalf("p99 %v at overload, want heavy queueing", srv.Latencies().Quantile(0.99))
	}
}

// A closed-loop sysbench population driving one machine: every request
// comes from the client threads, every completion is served, and the
// latency floor still includes the network component.
func TestClosedLoopServer(t *testing.T) {
	var cl *workload.ClosedLoopClient
	g, err := cluster.NewGraph(cluster.GraphConfig{Tiers: []cluster.TierConfig{{
		Cluster: cluster.Config{
			Policy:  cluster.RoundRobin,
			Members: []cluster.MemberConfig{{SoC: soc.DefaultConfig(soc.CPC1A), Server: server.DefaultConfig()}},
			NewSource: func(eng *sim.Engine, _ workload.Spec, seed uint64, sink func(*workload.Request)) workload.Source {
				cl = workload.SysbenchOLTP(eng, 16, 1e-3, seed, sink)
				return cl
			},
		},
		Spec: workload.Spec{Name: "sysbench-16thr"},
	}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, srv := g.Member(0, 0)
	g.Run(100 * sim.Millisecond)
	cl.Stop()
	g.Run(10 * sim.Millisecond)

	if srv.Served() == 0 || cl.Completed() == 0 {
		t.Fatal("closed-loop server served nothing")
	}
	if srv.Served() < cl.Completed() {
		t.Fatalf("served %d < completed %d", srv.Served(), cl.Completed())
	}
	if srv.Served() > cl.Generated() {
		t.Fatalf("served %d > issued %d: requests from outside the client threads", srv.Served(), cl.Generated())
	}
	if srv.Latencies().Min() < 117e-6 {
		t.Fatalf("min latency %v below network floor", srv.Latencies().Min())
	}
}

// Timer ticks erode the PC1A opportunity: a tickful kernel must show
// strictly less PC1A residency than a tickless one at the same load.
func TestTimerTicksErodePC1A(t *testing.T) {
	residency := func(tickHz float64) float64 {
		cfg := server.DefaultConfig()
		cfg.TimerTickHz = tickHz
		cfg.TickKernelTime = 5 * sim.Microsecond
		g, sys, _ := machine(t, soc.CPC1A, cfg, workload.Memcached(10000))
		g.Run(100 * sim.Millisecond)
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
