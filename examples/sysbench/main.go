// Closed-loop sysbench: drive MySQL-style OLTP through synchronous
// client threads (the way the paper's sysbench clients actually behave)
// instead of an open-loop rate, and sweep the thread count. Closed-loop
// load self-throttles, so the PC1A opportunity shifts with concurrency
// rather than arrival rate.
package main

import (
	"fmt"
	"log"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

func main() {
	const window = 500 * sim.Millisecond
	fmt.Println("threads  completed   tps      mean-lat   PC1A-res   power")

	for _, threads := range []int{4, 16, 64} {
		// One machine as a 1×1 graph whose source is the thread
		// population instead of an open-loop generator.
		var cl *workload.ClosedLoopClient
		members := []cluster.MemberConfig{{SoC: soc.DefaultConfig(soc.CPC1A), Server: server.DefaultConfig()}}
		g, err := cluster.NewGraph(cluster.GraphConfig{Tiers: []cluster.TierConfig{{
			Cluster: cluster.Config{Policy: cluster.RoundRobin, Members: members,
				NewSource: func(eng *sim.Engine, _ workload.Spec, seed uint64, sink func(*workload.Request)) workload.Source {
					cl = workload.SysbenchOLTP(eng, threads, 2e-3, seed, sink)
					return cl
				}},
			Spec: workload.Spec{Name: fmt.Sprintf("sysbench-%dthr", threads)},
		}}}, 1)
		if err != nil {
			log.Fatal(err)
		}
		sys, srv := g.Member(0, 0)

		snap := sys.Meter.Snapshot()
		g.Run(window) // threads issue until stopped: no drain
		cl.Stop()
		g.Run(20 * sim.Millisecond) // flush the tail

		tps := float64(cl.Completed()) / window.Seconds()
		res := float64(sys.APMU.Residency(pmu.PC1A)) / float64(sys.Engine.Now())
		fmt.Printf("%-7d  %-9d  %-7.0f  %-8.1fus %6.1f%%    %5.1fW\n",
			threads, cl.Completed(), tps,
			srv.Latencies().Mean()*1e6, res*100, snap.AverageTotal())
	}
	fmt.Println("\nMore threads -> more concurrency -> less full-system idleness -> less PC1A.")
}
