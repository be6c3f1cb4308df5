package cluster

import (
	"reflect"
	"testing"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

func TestTopologyShape(t *testing.T) {
	topo := Topology{Racks: 2, ServersPerRack: 4}
	if topo.Servers() != 8 {
		t.Errorf("2x4 holds %d servers", topo.Servers())
	}
	if topo.String() != "2x4" {
		t.Errorf("String() = %q", topo.String())
	}
	for i, want := range []int{0, 0, 0, 0, 1, 1, 1, 1} {
		if got := topo.RackOf(i); got != want {
			t.Errorf("RackOf(%d) = %d, want %d", i, got, want)
		}
	}
	if Flat(5).IsFlat() != true || topo.IsFlat() {
		t.Error("IsFlat misclassifies")
	}
}

// rackFleet builds a racks×perRack CPC1A fleet under the given policy.
func rackFleet(t *testing.T, pol Policy, racks, perRack int, tor sim.Duration, spec workload.Spec) *testFleet {
	t.Helper()
	fl, err := newFleet(Config{
		Policy:     pol,
		P99Target:  300 * sim.Microsecond,
		Topology:   Topology{Racks: racks, ServersPerRack: perRack},
		TorLatency: tor,
		Members:    uniformMembers(racks*perRack, soc.CPC1A),
	}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// TestRackAffinityPacksOntoLocalRack is the policy's reason to exist: at
// light aggregate load every request fits the local rack, so the remote
// racks see zero traffic and sink whole-rack-deep into PC1A.
func TestRackAffinityPacksOntoLocalRack(t *testing.T) {
	fl := rackFleet(t, RackAffinity, 2, 4, 5*sim.Microsecond, workload.Memcached(40000))
	m := fl.Measure(5*sim.Millisecond, 50*sim.Millisecond)
	if len(m.Racks) != 2 {
		t.Fatalf("want 2 rack zones, got %d", len(m.Racks))
	}
	local, remote := m.Racks[0], m.Racks[1]
	if !local.Local || remote.Local {
		t.Errorf("rack locality flags wrong: %+v %+v", local, remote)
	}
	if local.Routed == 0 || remote.Routed != 0 {
		t.Errorf("rack_affinity should keep light load on the local rack: local %d, remote %d",
			local.Routed, remote.Routed)
	}
	if remote.TotalWatts >= local.TotalWatts {
		t.Errorf("drained rack zone should burn less: local %.1fW, remote %.1fW",
			local.TotalWatts, remote.TotalWatts)
	}
	if local.PC1AResidency == nil || remote.PC1AResidency == nil {
		t.Fatal("missing rack PC1A stats")
	}
	if *remote.PC1AResidency <= *local.PC1AResidency {
		t.Errorf("drained rack should sit deeper in PC1A: local %.3f, remote %.3f",
			*local.PC1AResidency, *remote.PC1AResidency)
	}
	if local.Servers != 4 || remote.Servers != 4 || remote.ActiveServers != 0 {
		t.Errorf("rack census wrong: %+v %+v", local, remote)
	}
}

// TestRackAffinitySpillsUnderLoad: when the local rack's natural
// capacity (one in-flight per core) saturates, the policy wakes the next
// rack instead of queueing at the balancer.
func TestRackAffinitySpillsUnderLoad(t *testing.T) {
	fl := rackFleet(t, RackAffinity, 2, 2, 5*sim.Microsecond, workload.Memcached(900000))
	m := fl.Measure(5*sim.Millisecond, 30*sim.Millisecond)
	if m.Racks[1].Routed == 0 {
		t.Error("saturating load never spilled to the second rack")
	}
	if m.Racks[0].Routed <= m.Racks[1].Routed {
		t.Errorf("spill should still favor the local rack: local %d, remote %d",
			m.Racks[0].Routed, m.Racks[1].Routed)
	}
}

// TestRackPowerAwarePacksRackFirst: with the derived cap applied
// rack-first, a 2×2 fleet at moderate load keeps the second rack
// strictly colder than round_robin leaves it.
func TestRackPowerAwarePacksRackFirst(t *testing.T) {
	spec := func() workload.Spec { return workload.Memcached(60000) }
	packed := rackFleet(t, RackPowerAware, 2, 2, 5*sim.Microsecond, spec())
	spread := rackFleet(t, RoundRobin, 2, 2, 5*sim.Microsecond, spec())
	pm := packed.Measure(5*sim.Millisecond, 50*sim.Millisecond)
	sm := spread.Measure(5*sim.Millisecond, 50*sim.Millisecond)
	if pm.Racks[1].Routed >= sm.Racks[1].Routed {
		t.Errorf("rack_power_aware remote rack load %d not below round_robin's %d",
			pm.Racks[1].Routed, sm.Racks[1].Routed)
	}
	if pm.TotalWatts >= sm.TotalWatts {
		t.Errorf("rack packing should save fleet watts: packed %.1fW, spread %.1fW",
			pm.TotalWatts, sm.TotalWatts)
	}
}

// TestTorLatencyTaxesRemoteRacks: the same spread workload pays two ToR
// hops per remote-rack request, so mean latency on rack 1 must exceed
// rack 0's by roughly the round trip.
func TestTorLatencyTaxesRemoteRacks(t *testing.T) {
	tor := 20 * sim.Microsecond
	fl := rackFleet(t, RoundRobin, 2, 2, tor, workload.Memcached(20000))
	m := fl.Measure(5*sim.Millisecond, 50*sim.Millisecond)
	gap := m.Racks[1].MeanLatency - m.Racks[0].MeanLatency
	rtt := (2 * tor).Seconds()
	if gap < rtt*0.8 || gap > rtt*1.2 {
		t.Errorf("remote rack latency gap %.1fus, want ≈ ToR round trip %.1fus",
			gap*1e6, rtt*1e6)
	}
}

// TestTorTransitDrains: requests caught mid-ToR-hop at the window edge
// must be drained, not leaked — generated always equals served when the
// fleet is healthy.
func TestTorTransitDrains(t *testing.T) {
	fl := rackFleet(t, RoundRobin, 2, 1, 500*sim.Microsecond, workload.Memcached(50000))
	fl.Run(20 * sim.Millisecond)
	if fl.Dropped() != 0 {
		t.Fatalf("healthy fleet dropped %d requests", fl.Dropped())
	}
	var served uint64
	for _, m := range fl.members {
		served += m.srv.Served()
	}
	if served != fl.Generated() {
		t.Errorf("ToR transit leaked requests: generated %d, served %d", fl.Generated(), served)
	}
}

// TestFlatTopologyMatchesRackless locks the tentpole's parity anchor at
// the package level: an explicit 1-rack, zero-ToR topology must measure
// bit-identically to the same fleet with no topology at all, for every
// policy that exists in both worlds.
func TestFlatTopologyMatchesRackless(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastLoaded, PowerAware} {
		run := func(topo Topology) Measurement {
			fl, err := newFleet(Config{
				Policy:    pol,
				P99Target: 300 * sim.Microsecond,
				Topology:  topo,
				Members:   uniformMembers(4, soc.CPC1A),
			}, workload.MemcachedBursty(40000, 4), 3)
			if err != nil {
				t.Fatal(err)
			}
			return fl.Measure(5*sim.Millisecond, 30*sim.Millisecond)
		}
		rackless, flat := run(Topology{}), run(Flat(4))
		if !reflect.DeepEqual(rackless, flat) {
			t.Errorf("%v: explicit flat topology diverges from rackless fleet:\n%+v\n%+v",
				pol, rackless, flat)
		}
	}
}
