package main

import (
	"agilepkgc/internal/scenario"
)

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names and units; TestMetricNamesMatchBenchmarkJSON keeps them in step.
type metricSpec struct {
	name   string
	unit   string
	better string
}

// endToEndMetrics are reported by an untraced run (--trace 0).
var endToEndMetrics = []metricSpec{
	{"sim_req_per_s", "req/s", "higher"},
	{"setup_s", "s", "lower"},
	{"mem_mb", "MB", "lower"},
	{"pass_frac", "frac", "higher"},
}

// perLayerMetrics are reported by a traced run (--trace 1).
var perLayerMetrics = func() []metricSpec {
	var ms []metricSpec
	for _, l := range layerNames {
		ns, samples := layerMetricNames(l)
		ms = append(ms, metricSpec{ns, "ns/req", "lower"}, metricSpec{samples, "count", "higher"})
	}
	return append(ms,
		metricSpec{"runtime.allocs_per_req", "allocs/req", "lower"},
		metricSpec{"runtime.bytes_per_req", "B/req", "lower"},
		metricSpec{"runtime.gc_cycles", "count", "lower"},
		metricSpec{"scenario.load_ms", "ms", "lower"},
		metricSpec{"scenario.run_ms", "ms", "lower"},
		metricSpec{"output.render_ms", "ms", "lower"},
		metricSpec{"core.pc1a_entries_per_req", "1/req", "higher"},
		metricSpec{"cluster.drains", "count", "higher"},
		metricSpec{"cluster.retries_per_req", "1/req", "lower"},
		metricSpec{"cluster.hedges_per_req", "1/req", "lower"},
		metricSpec{"cluster.shed_frac", "frac", "lower"},
		metricSpec{"cluster.ok_frac", "frac", "higher"},
		metricSpec{"graph.backend_req_per_client_req", "req/req", "lower"},
		metricSpec{"profile.samples", "count", "higher"},
		metricSpec{"profile.host_ns_per_req", "ns/req", "lower"},
		metricSpec{"profile.cpu_ns_per_req", "ns/req", "lower"},
		metricSpec{"profile.traced_req_per_s", "req/s", "higher"},
		metricSpec{"profile.untraced_req_per_s", "req/s", "higher"},
		metricSpec{"profile.overhead_frac", "frac", "lower"},
	)
}()

// layerMetricNames returns the ns-per-request and sample-count metric
// names of a profile layer. The no-module-caller bucket is named after
// the runtime, as runtime.gc_ns_per_req.
func layerMetricNames(layer string) (ns, samples string) {
	if layer == layerRuntime {
		return layer + "_ns_per_req", layer + "_samples"
	}
	return layer + ".ns_per_req", layer + ".samples"
}

// simCounts are simulated-work counts read from one pass's results.
// They depend only on code and seed, so they explain cost without
// timing noise, and a change that only speeds up the simulator must
// leave them as they are.
type simCounts struct {
	pc1aPerReq       float64
	drains           uint64
	retriesPerReq    float64
	hedgesPerReq     float64
	shedFrac         float64
	okFrac           float64
	backendPerClient float64
}

func countSim(pass []*scenario.Result) simCounts {
	var c simCounts
	var pc1a, pc1aReqs uint64
	var faultGen, ok, retried, hedged, shed uint64
	var clientGen, backendGen uint64
	for _, res := range pass {
		sc := &res.Scenario
		for i := range res.Points {
			p := &res.Points[i]
			if p.PC1AEntries != nil {
				pc1a += *p.PC1AEntries
				pc1aReqs += resolved(p)
			}
			for _, s := range p.Servers {
				c.drains += s.Drains
			}
			ok, retried, hedged, shed = ok+p.OK, retried+p.Retried, hedged+p.Hedged, shed+p.Shed
			if sc.Cluster != nil && sc.Cluster.Faults != nil {
				faultGen += p.Generated
			}
			for ti, t := range p.Tiers {
				c.drains += t.Fleet.Drains
				if sc.Tiers[ti].Faults != nil {
					faultGen += t.Fleet.Generated
				}
				if ti == 0 {
					clientGen += t.Fleet.Generated
				} else {
					backendGen += t.Fleet.Generated
				}
			}
		}
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	c.pc1aPerReq = ratio(pc1a, pc1aReqs)
	c.retriesPerReq = ratio(retried, faultGen)
	c.hedgesPerReq = ratio(hedged, faultGen)
	c.shedFrac = ratio(shed, faultGen)
	c.okFrac = ratio(ok, faultGen+retried+hedged)
	c.backendPerClient = ratio(backendGen, clientGen)
	return c
}
