package scenario

import "testing"

// TestPointValidationErrors pins the full Run error text of every
// applied-point check on a fleet-shape block, for the cluster block
// and for a tiers[0] block alike: the checks that only exist once a
// sweep value is applied (fleet size, rack divisibility, override
// indices, each member's merged timer-tick settings) must keep naming
// the block the user wrote. A single-machine point names no block and
// no server: it runs as a one-server graph, but the user wrote no
// fleet.
func TestPointValidationErrors(t *testing.T) {
	fleet := func(mut func(*Cluster)) Cluster {
		c := Cluster{Servers: 4, Policy: "round_robin"}
		if mut != nil {
			mut(&c)
		}
		return c
	}
	clustered := func(c Cluster) Scenario {
		return Scenario{
			Name:     "pointerr",
			Config:   "CPC1A",
			Workload: Workload{Service: "memcached", QPS: 40000},
			Cluster:  &c,
		}
	}
	tiered := func(c Cluster) Scenario {
		sc := clustered(c)
		sc.Cluster = nil
		sc.Tiers = []Tier{{Name: "front", Cluster: c}}
		return sc
	}
	serversSweep := func(sc Scenario) Scenario {
		sc.Sweep = &Sweep{Axis: AxisServers, Values: []float64{2, 0}}
		return sc
	}
	indivisible := fleet(func(c *Cluster) { c.Racks = 3 })
	pastEnd := fleet(func(c *Cluster) { c.ServerOverrides = map[string]Overrides{"5": {}} })
	tickless := fleet(func(c *Cluster) {
		c.ServerOverrides = map[string]Overrides{"2": {TimerTickHz: ptr(250.0)}}
	})
	zero := fleet(func(c *Cluster) { c.Servers = 0 })
	single := Scenario{
		Name:     "pointerr",
		Config:   "CPC1A",
		Workload: Workload{Service: "memcached", QPS: 40000},
		Server:   Overrides{TimerTickHz: ptr(250.0)},
	}
	sysbench := Scenario{
		Name:     "pointerr",
		Config:   "CPC1A",
		Workload: Workload{Service: "sysbench", Threads: 4, ThinkMS: 1},
		Sweep:    &Sweep{Axis: AxisThreads, Values: []float64{4, 0}},
	}

	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"cluster servers swept to 0", serversSweep(clustered(fleet(nil))),
			`scenario "pointerr": servers value 0 is below 1`},
		{"tiers[0] servers 0", tiered(zero),
			`scenario "pointerr": tiers[0].servers must be at least 1`},
		{"cluster racks indivisible", clustered(indivisible),
			`scenario "pointerr": cluster.racks 3 does not divide 4 servers into equal racks`},
		{"tiers[0] racks indivisible", tiered(indivisible),
			`scenario "pointerr": tiers[0].racks 3 does not divide 4 servers into equal racks`},
		{"cluster override past the fleet", clustered(pastEnd),
			`scenario "pointerr": cluster.server_overrides[5]: fleet has only 4 servers`},
		{"tiers[0] override past the tier", tiered(pastEnd),
			`scenario "pointerr": tiers[0].server_overrides[5]: tier has only 4 servers`},
		{"cluster tick without kernel time", clustered(tickless),
			`scenario "pointerr": server 2: timer_tick_hz needs tick_kernel_us > 0`},
		{"tiers[0] tick without kernel time", tiered(tickless),
			`scenario "pointerr": tiers[0] server 2: timer_tick_hz needs tick_kernel_us > 0`},
		{"single machine tick without kernel time", single,
			`scenario "pointerr": timer_tick_hz needs tick_kernel_us > 0`},
		{"sysbench threads swept to 0", sysbench,
			`scenario "pointerr" [threads=0]: sysbench: needs threads > 0`},
	}
	for _, c := range cases {
		_, err := c.sc.Run(quickOpt())
		if err == nil {
			t.Errorf("%s: Run succeeded, want %q", c.name, c.want)
			continue
		}
		if got := err.Error(); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}
