package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"agilepkgc/internal/scenario"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// benchWorkload is one input set: the scenario files it writes for a
// seed. The files are the program's only input; the benchmark loads
// them through scenario.LoadFile exactly as `apcsim scenario` would.
type benchWorkload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same text.
	why string
	// write generates the workload's files into dir and returns the
	// scenario file paths, in run order. scale multiplies every
	// simulated window (1 for measurement; the self-tests shrink it).
	write func(dir string, seed uint64, scale float64) ([]string, error)
}

// Window sizes, in simulated milliseconds per point. Each is chosen so
// one pass over the workload takes half a second to a second of host
// time on a 2-vCPU Xeon guest, which gives a 40 s run a few dozen
// passes to take the median of.
const (
	lowloadWindowMS = 3000
	fleetWindowMS   = 250
	graphWindowMS   = 1000
)

var workloads = []benchWorkload{
	{
		name: "server-lowload",
		why:  "one memcached server at the paper's Fig. 7(b) rates, Cshallow vs CPC1A: device power-state layers dominate, no cluster code runs",
		write: func(dir string, seed uint64, scale float64) ([]string, error) {
			qps := []float64{4000, 10000, 20000, 50000}
			var scs []scenario.Scenario
			for _, cfg := range []string{"Cshallow", "CPC1A"} {
				scs = append(scs, scenario.Scenario{
					Name:       "lowload-" + cfg,
					Config:     cfg,
					DurationMS: lowloadWindowMS * scale,
					Seed:       seed,
					Workload:   scenario.Workload{Service: "memcached", QPS: qps[0]},
					Sweep:      &scenario.Sweep{Axis: scenario.AxisQPS, Values: qps},
				})
			}
			return writeScenarios(dir, "server-lowload.json", scs)
		},
	},
	{
		name: "fleet-replay",
		why:  "8-server racked fleet replaying a looped bursty trace under power-aware packing with drain holds and SLA feedback: balancer, event heap and replay decode dominate",
		write: func(dir string, seed uint64, scale float64) ([]string, error) {
			if err := synthesizeTrace(filepath.Join(dir, "fleet.trace"), seed); err != nil {
				return nil, err
			}
			holds := []float64{0, 200, 1000, 5000}
			var scs []scenario.Scenario
			for _, policy := range []string{"power_aware", "rack_power_aware"} {
				scs = append(scs, scenario.Scenario{
					Name:       "fleet-" + policy,
					Config:     "CPC1A",
					DurationMS: fleetWindowMS * scale,
					Seed:       seed,
					Workload: scenario.Workload{Service: "trace",
						Trace: &scenario.Trace{Path: "fleet.trace", Loop: true}},
					Cluster: &scenario.Cluster{Servers: 8, Racks: 2, TorLatencyUS: 5,
						Policy: policy, P99TargetUS: 300, FeedbackEpochUS: 1000},
					Sweep: &scenario.Sweep{Axis: scenario.AxisDrainHold, Values: holds},
				})
			}
			return writeScenarios(dir, "fleet-replay.json", scs)
		},
	},
	{
		name: "graph-faults",
		why:  "cache-to-db service graph with crashes, timeouts, retries and hedges: timers armed then cancelled, misses fanned out into pooled joins",
		write: func(dir string, seed uint64, scale float64) ([]string, error) {
			sc := scenario.Scenario{
				Name:       "graph-faults",
				Config:     "CPC1A",
				DurationMS: graphWindowMS * scale,
				Seed:       seed,
				Workload:   scenario.Workload{Service: "memcached", QPS: 60000},
				Tiers: []scenario.Tier{
					{Name: "cache", Cluster: scenario.Cluster{Servers: 4, Racks: 2, TorLatencyUS: 5,
						Policy: "power_aware", P99TargetUS: 300,
						Faults: &scenario.Faults{MTBFUS: 20000, MTTRUS: 2000,
							RequestTimeoutUS: 2000, MaxRetries: 2, HedgeDelayUS: 150}}},
					{Name: "db", Service: "mysql", Cluster: scenario.Cluster{Servers: 2,
						Policy: "power_aware", P99TargetUS: 2000}},
				},
				Edges: []scenario.Edge{{From: "cache", To: "db", HitRatio: 0.9, TTLUS: 20000, Fanout: 2}},
				Sweep: &scenario.Sweep{Axis: scenario.AxisHitRatio, Values: []float64{0.5, 0.7, 0.9, 0.99}},
			}
			return writeScenarios(dir, "graph-faults.json", []scenario.Scenario{sc})
		},
	},
}

func lookupWorkload(name string) (*benchWorkload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func writeScenarios(dir, file string, scs []scenario.Scenario) ([]string, error) {
	data, err := json.MarshalIndent(scs, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return []string{path}, nil
}

// synthesizeTrace records 22 ms of bursty memcached arrivals at 300K
// aggregate QPS. The trace is much shorter than a point's window, so
// every point loops it many times and replay's rewind and CRC re-check
// stay on the measured path.
func synthesizeTrace(path string, seed uint64) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = replay.Synthesize(f, workload.MemcachedBursty(300000, 8), seed,
		2*sim.Millisecond, 20*sim.Millisecond)
	return err
}
