// Command apctop is a powertop-style observer for the simulated server:
// it runs a workload on a chosen configuration and reports per-interval
// power and residency — reading *only* the emulated RAPL MSRs and
// residency counters (internal/msr), the same interface the real tools
// use, rather than the simulator's native accounting.
//
// Usage:
//
//	apctop [-config cpc1a|cshallow|cdeep] [-qps 20000] [-intervals 10]
//	       [-interval 100ms]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/msr"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// readoutHeader is the MSR-readout column header; the smoke test
// (main_test.go) asserts one interval of output starts with it.
const readoutHeader = "interval   pkg-W    dram-W   CC1-res%   PC1A-res%  served"

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "apctop: %v\n", err)
		os.Exit(1)
	}
}

// run executes the whole observer against w, so the CI smoke test can
// drive it in-process; only flag parsing stays in the flag package's
// hands (ContinueOnError, so bad flags surface as an error, not an
// exit).
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("apctop", flag.ContinueOnError)
	fs.SetOutput(w)
	configName := fs.String("config", "cpc1a", "system configuration: cshallow, cdeep, cpc1a")
	qps := fs.Float64("qps", 20000, "memcached request rate (0 = idle)")
	intervals := fs.Int("intervals", 10, "number of reporting intervals")
	interval := fs.Duration("interval", 100*time.Millisecond, "virtual time per interval")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h printed the usage; that is success, not an error.
			return nil
		}
		return err
	}

	var kind soc.ConfigKind
	switch strings.ToLower(*configName) {
	case "cshallow":
		kind = soc.Cshallow
	case "cdeep":
		kind = soc.Cdeep
	case "cpc1a":
		kind = soc.CPC1A
	default:
		return fmt.Errorf("unknown config %q", *configName)
	}
	if *intervals < 1 {
		return fmt.Errorf("intervals must be at least 1 (got %d)", *intervals)
	}
	if *interval <= 0 {
		return fmt.Errorf("interval must be positive (got %v)", *interval)
	}

	// Under load the machine is a 1×1 graph; idle, a bare system.
	var g *cluster.Graph
	var sys *soc.System
	var srv *server.Server
	if *qps > 0 {
		var err error
		if g, err = cluster.NewMachine(soc.DefaultConfig(kind), server.DefaultConfig(), workload.Memcached(*qps), 1); err != nil {
			return err
		}
		sys, srv = g.Member(0, 0)
	} else {
		sys = soc.New(soc.DefaultConfig(kind))
	}
	obs := &observer{sys: sys, mon: msr.NewMonitor(sys)}

	fmt.Fprintf(w, "apctop: %s, %s, %.0f QPS, %d x %v intervals\n\n",
		kind, sys.Cores[0].Governor(), *qps, *intervals, *interval)
	fmt.Fprintln(w, readoutHeader)

	dt := sim.Duration((*interval).Nanoseconds())
	var servedPrev uint64
	for i := 0; i < *intervals; i++ {
		before := obs.sample()
		if g != nil {
			g.Run(dt)
		} else {
			sys.Engine.Run(sys.Engine.Now() + dt)
		}
		after := obs.sample()
		if obs.err != nil {
			return obs.err
		}
		r := obs.rates(before, after)
		served := uint64(0)
		if srv != nil {
			served = srv.Served() - servedPrev
			servedPrev = srv.Served()
		}
		fmt.Fprintf(w, "%-9d  %6.2f   %6.2f   %7.1f    %7.1f    %d\n",
			i, r.pkgW, r.dramW, r.cc1Res*100, r.pc1aRes*100, served)
	}
	return nil
}

// observer reads the counters apctop reports through the emulated MSR
// monitor; the first read error sticks in err.
type observer struct {
	sys *soc.System
	mon *msr.Monitor
	err error
}

// sample is one reading of the counters, stamped with the engine time
// it was taken at.
type sample struct {
	at        sim.Time
	pkg, dram uint64 // RAPL energy-status counters
	cc1       uint64 // CC1 residency counters summed over the cores
	pc1a      sim.Duration
}

// readout is one interval's row: average watts and residency fractions.
type readout struct {
	pkgW, dramW     float64
	cc1Res, pc1aRes float64
}

func (o *observer) read(addr uint32, core int) uint64 {
	v, err := o.mon.Read(addr, core)
	if err != nil && o.err == nil {
		o.err = err
	}
	return v
}

func (o *observer) sample() sample {
	s := sample{
		at:   o.sys.Engine.Now(),
		pkg:  o.read(msr.MSRPkgEnergyStatus, 0),
		dram: o.read(msr.MSRDramEnergyStatus, 0),
	}
	for c := range o.sys.Cores {
		s.cc1 += o.read(msr.MSRCoreC1Residency, c)
	}
	if o.sys.APMU != nil {
		s.pc1a = o.sys.APMU.Residency(pmu.PC1A)
	}
	return s
}

// rates derives the readout between two samples. The divisor is the
// engine time that elapsed between them, not the requested interval:
// a loaded Graph.Run drains in-flight requests past its window, and
// the counters keep counting through the drain.
func (o *observer) rates(a, b sample) readout {
	wall := (b.at - a.at).Seconds()
	return readout{
		pkgW:    msr.EnergyDelta(a.pkg, b.pkg) / wall,
		dramW:   msr.EnergyDelta(a.dram, b.dram) / wall,
		cc1Res:  float64(b.cc1-a.cc1) / msr.TSCHz / wall / float64(len(o.sys.Cores)),
		pc1aRes: (b.pc1a - a.pc1a).Seconds() / wall,
	}
}
