// Command apcbench is the repository's end-to-end benchmark. It writes a
// workload's scenario files from a seed, loads them through
// scenario.LoadFile and runs them with Scenario.Run at parallelism 1 —
// the `apcsim scenario` path, in process — then renders each result's
// report, CSV and JSON the way `apcsim -csv -json` does. It repeats
// that pass for the requested number of host seconds, checks every
// simulated point, and prints its metrics, the last line as JSON.
//
// Build and run it from the repository root with
//
//	bash apcbench/run.sh --workload server-lowload --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the same passes with a CPU profile on every other pass
// and reports the per-layer metrics instead. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/scenario"
)

// Benchmark settings that are not flags.
const (
	// setupProbes is how many fresh processes time the cold load before
	// the first pass and again after every measured pass; the median of
	// all of them is setup_s. The host's speed drifts by tens of percent
	// over tens of seconds, so probes spread over the whole run give a
	// steadier median than a batch timed at its start.
	setupProbes = 4
	// profileHz is the CPU profile sampling rate of traced passes.
	profileHz = 1000
	// workRoot holds generated inputs, under the checkout's build
	// directory.
	workRoot = ".bench_build/work"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("apcbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: server-lowload, fleet-replay or graph-faults")
	seed := fs.Uint64("seed", referenceSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds of measured passes")
	traceFlag := fs.Int("trace", 0, "1 reports the per-layer metrics from a profiled run")
	writeRef := fs.Bool("write-reference", false, "store this run's point digests in reference.json (seed 1 only)")
	probe := fs.Bool("setup-probe", false, "internal: time one cold load of the scenario files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		return setupProbe(fs.Args(), stdout)
	}
	w, err := lookupWorkload(*name)
	if err != nil || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "apcbench: need --workload server-lowload|fleet-replay|graph-faults, --seconds > 0 and --trace 0|1")
		return 2
	}
	if *writeRef && *seed != referenceSeed {
		fmt.Fprintf(os.Stderr, "apcbench: --write-reference needs --seed %d\n", referenceSeed)
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, scale: 1,
		dir:       filepath.Join(workRoot, fmt.Sprintf("%s-seed%d", w.name, *seed)),
		coldSetup: true, refPath: "apcbench/reference.json", writeRef: *writeRef, out: stdout}
	r, err := b.measure()
	if err != nil {
		fmt.Fprintf(os.Stderr, "apcbench: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		return 1
	}
	if !r.Correct {
		return 1
	}
	return 0
}

// setupProbe is the body of one cold-setup process: load every file and
// print the elapsed nanoseconds.
func setupProbe(files []string, stdout io.Writer) int {
	start := time.Now()
	if _, err := loadAll(files); err != nil {
		fmt.Fprintf(os.Stderr, "apcbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, time.Since(start).Nanoseconds())
	return 0
}

// loadAll loads every scenario of every file, in order.
func loadAll(files []string) ([]scenario.Scenario, error) {
	var scs []scenario.Scenario
	for _, f := range files {
		loaded, err := scenario.LoadFile(f)
		if err != nil {
			return nil, err
		}
		scs = append(scs, loaded...)
	}
	return scs, nil
}

// bench is one benchmark invocation.
type bench struct {
	w       *benchWorkload
	seed    uint64
	seconds float64
	trace   bool
	// scale multiplies the simulated windows; the self-tests shrink it.
	scale float64
	// dir receives the generated inputs; it is emptied first.
	dir string
	// coldSetup times the load in fresh processes; otherwise in this one.
	coldSetup bool
	// files are the generated scenario files, and setup the host
	// seconds of every timed load of them so far.
	files    []string
	setup    []float64
	refPath  string
	writeRef bool
	out      io.Writer
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passStats is what one measured pass yields.
type passStats struct {
	wall     time.Duration
	requests uint64
	runMS    float64 // summed Scenario.Run spans
	renderMS float64 // summed report/CSV/JSON spans
}

func (p passStats) reqPerSec() float64 { return float64(p.requests) / p.wall.Seconds() }

func (b *bench) measure() (*result, error) {
	err := os.RemoveAll(b.dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	b.files, err = b.w.write(b.dir, b.seed, b.scale)
	if err != nil {
		return nil, fmt.Errorf("write %s inputs: %w", b.w.name, err)
	}
	if err := b.timeSetup(); err != nil {
		return nil, err
	}
	scs, err := loadAll(b.files)
	if err != nil {
		return nil, err
	}

	r := &result{Metrics: map[string]metric{}}
	// The first pass is not timed: it lets lazy set-up finish and fixes
	// the digests every later pass of this run must reproduce.
	first, _, err := b.pass(scs, nil)
	if err != nil {
		return nil, err
	}
	var ref []string
	if b.seed == referenceSeed && !b.writeRef {
		refs, err := loadReference(b.refPath)
		if err != nil {
			return nil, err
		}
		ref = refs[b.w.name]
		if ref == nil {
			return nil, fmt.Errorf("%s has no digests for %s", b.refPath, b.w.name)
		}
	}
	tally(r, first, ref)
	want := digests(first)
	if b.writeRef {
		if err := b.storeReference(want); err != nil {
			return nil, err
		}
	}
	b.describe(scs, first)

	if b.trace {
		err = b.traced(r, scs, first, want)
	} else {
		err = b.timed(r, scs, want)
	}
	if err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0
	b.printTable(r)
	return r, nil
}

// timed runs untraced passes for the run's seconds and reports the
// end-to-end metrics.
func (b *bench) timed(r *result, scs []scenario.Scenario, want []string) error {
	var rates []float64
	start := time.Now()
	for len(rates) == 0 || time.Since(start).Seconds() < b.seconds {
		pass, st, err := b.pass(scs, nil)
		if err != nil {
			return err
		}
		rates = append(rates, st.reqPerSec())
		tally(r, pass, want)
		if err := b.timeSetup(); err != nil {
			return err
		}
	}
	fmt.Fprintf(b.out, "passes: %d timed in %.3f s of host time; req/s per pass min %.0f, median %.0f, max %.0f\n",
		len(rates), time.Since(start).Seconds(), slices.Min(rates), median(rates), slices.Max(rates))
	fmt.Fprintf(b.out, "setup: %d cold loads; s per load min %.6f, median %.6f, max %.6f\n",
		len(b.setup), slices.Min(b.setup), median(b.setup), slices.Max(b.setup))
	r.Metrics["sim_req_per_s"] = metric{median(rates), "req/s"}
	r.Metrics["setup_s"] = metric{median(b.setup), "s"}
	r.Metrics["mem_mb"] = metric{runtimeTotalBytes() / 1e6, "MB"}
	r.Metrics["pass_frac"] = metric{float64(r.Attempted-r.Failed) / float64(r.Attempted), "frac"}
	return nil
}

// traced alternates untraced and profiled passes for the run's seconds
// and reports the per-layer metrics.
func (b *bench) traced(r *result, scs []scenario.Scenario, first []*scenario.Result, want []string) error {
	var (
		untraced, tracedRates []float64
		runMS, renderMS       []float64
		tracedWall            time.Duration
		tracedReqs            uint64
		allocs, allocBytes    uint64
		untracedReqs          uint64
		gcPerPass             []float64
		tracedCPU             time.Duration
		layers                = map[string]int64{}
		prof                  bytes.Buffer
	)
	start := time.Now()
	for len(tracedRates) == 0 || time.Since(start).Seconds() < b.seconds {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pass, st, err := b.pass(scs, nil)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		tally(r, pass, want)
		untraced = append(untraced, st.reqPerSec())
		untracedReqs += st.requests
		allocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		gcPerPass = append(gcPerPass, float64(m1.NumGC-m0.NumGC))

		prof.Reset()
		cpu0 := processCPU()
		pass, st, err = b.pass(scs, &prof)
		if err != nil {
			return err
		}
		tracedCPU += processCPU() - cpu0
		if err := foldProfile(prof.Bytes(), layers); err != nil {
			return err
		}
		tally(r, pass, want)
		tracedRates = append(tracedRates, st.reqPerSec())
		tracedWall += st.wall
		tracedReqs += st.requests
		runMS = append(runMS, st.runMS)
		renderMS = append(renderMS, st.renderMS)
		if err := b.timeSetup(); err != nil {
			return err
		}
	}
	fmt.Fprintf(b.out, "passes: %d untraced + %d profiled, %.3f s of host time\n",
		len(untraced), len(tracedRates), time.Since(start).Seconds())

	set := func(name string, v float64) {
		for _, m := range perLayerMetrics {
			if m.name == name {
				r.Metrics[name] = metric{v, m.unit}
				return
			}
		}
		panic("unlisted metric " + name)
	}
	perReq := float64(tracedReqs)
	var samples int64
	for _, n := range layers {
		samples += n
	}
	if samples == 0 {
		return errors.New("the CPU profile holds no samples")
	}
	// A layer's time is its share of the samples times the CPU time the
	// process used over the profiled passes.
	cpuPerReq := float64(tracedCPU.Nanoseconds()) / perReq
	for _, l := range layerNames {
		ns, sm := layerMetricNames(l)
		set(ns, cpuPerReq*float64(layers[l])/float64(samples))
		set(sm, float64(layers[l]))
	}
	set("runtime.allocs_per_req", float64(allocs)/float64(untracedReqs))
	set("runtime.bytes_per_req", float64(allocBytes)/float64(untracedReqs))
	set("runtime.gc_cycles", median(gcPerPass))
	set("scenario.load_ms", median(b.setup)*1e3)
	set("scenario.run_ms", median(runMS))
	set("output.render_ms", median(renderMS))
	c := countSim(first)
	set("core.pc1a_entries_per_req", c.pc1aPerReq)
	set("cluster.drains", float64(c.drains))
	set("cluster.retries_per_req", c.retriesPerReq)
	set("cluster.hedges_per_req", c.hedgesPerReq)
	set("cluster.shed_frac", c.shedFrac)
	set("cluster.ok_frac", c.okFrac)
	set("graph.backend_req_per_client_req", c.backendPerClient)
	set("profile.samples", float64(samples))
	set("profile.host_ns_per_req", float64(tracedWall.Nanoseconds())/perReq)
	set("profile.cpu_ns_per_req", cpuPerReq)
	set("profile.traced_req_per_s", median(tracedRates))
	set("profile.untraced_req_per_s", median(untraced))
	set("profile.overhead_frac", median(untraced)/median(tracedRates)-1)
	return nil
}

// pass runs every scenario once and renders its outputs; with prof
// non-nil it records a CPU profile of exactly that work.
func (b *bench) pass(scs []scenario.Scenario, prof io.Writer) ([]*scenario.Result, passStats, error) {
	opt := experiments.DefaultOptions()
	opt.Parallelism = 1
	var st passStats
	out := make([]*scenario.Result, 0, len(scs))
	var buf bytes.Buffer
	if prof != nil {
		// StartCPUProfile fixes its own 100 Hz rate unless a rate is
		// already set; the runtime prints a warning and keeps this one.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, st, err
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	for _, sc := range scs {
		t0 := time.Now()
		res, err := sc.Run(opt)
		if err != nil {
			return nil, st, err
		}
		t1 := time.Now()
		buf.Reset()
		buf.WriteString(res.Report())
		if err := res.WriteCSV(&buf); err != nil {
			return nil, st, err
		}
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonEnvelope{Name: sc.Name, Options: sc.EffectiveOptions(opt), Result: res}); err != nil {
			return nil, st, err
		}
		st.runMS += ms(t1.Sub(t0))
		st.renderMS += ms(time.Since(t1))
		out = append(out, res)
	}
	st.wall = time.Since(start)
	st.requests = passRequests(out)
	if st.requests == 0 {
		return nil, st, errors.New("a pass resolved no requests")
	}
	return out, st, nil
}

// jsonEnvelope mirrors the file `apcsim -json` writes per scenario.
type jsonEnvelope struct {
	Name    string              `json:"name"`
	Options experiments.Options `json:"options"`
	Result  any                 `json:"result"`
}

// tally checks one pass against the digests it must reproduce (none
// when want is nil) and adds the outcome to r.
func tally(r *result, pass []*scenario.Result, want []string) {
	a, f := checkPass(pass, digests(pass), want)
	r.Attempted += a
	r.Failed += f
}

// timeSetup times setupProbes more loads of the workload's files and
// adds their host seconds to b.setup.
func (b *bench) timeSetup() error {
	if !b.coldSetup {
		for range setupProbes {
			start := time.Now()
			if _, err := loadAll(b.files); err != nil {
				return err
			}
			b.setup = append(b.setup, time.Since(start).Seconds())
		}
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for range setupProbes {
		cmd := exec.Command(exe, append([]string{"--setup-probe"}, b.files...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("setup probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return fmt.Errorf("setup probe output %q: %w", out, err)
		}
		b.setup = append(b.setup, float64(ns)/1e9)
	}
	return nil
}

func (b *bench) storeReference(want []string) error {
	refs, err := loadReference(b.refPath)
	if errors.Is(err, os.ErrNotExist) {
		refs, err = reference{}, nil
	}
	if err != nil {
		return err
	}
	refs[b.w.name] = want
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.refPath, append(data, '\n'), 0o644)
}

// describe prints the input size and, for server-lowload, the model's
// Fig. 7(b) savings beside the paper's.
func (b *bench) describe(scs []scenario.Scenario, first []*scenario.Result) {
	points := 0
	var simSeconds float64
	opt := experiments.DefaultOptions()
	for i, res := range first {
		eff := scs[i].EffectiveOptions(opt)
		points += len(res.Points)
		simSeconds += float64(len(res.Points)) * (eff.Warmup() + eff.Duration).Seconds()
	}
	fmt.Fprintf(b.out, "apcbench %s: seed %d, %d scenarios, %d points\n", b.w.name, b.seed, len(scs), points)
	fmt.Fprintf(b.out, "input per pass: %d simulated requests, %.3f simulated s (warmup included)\n",
		passRequests(first), simSeconds)
	if b.w.name != "server-lowload" {
		fmt.Fprintf(b.out, "model accuracy: %s has no paper reference; its results are unvalidated\n", b.w.name)
		return
	}
	// Points run Cshallow first, then CPC1A, over the same QPS axis.
	sh, pc := first[0].Points, first[1].Points
	saving := func(i int) float64 { return 1 - pc[i].TotalWatts/sh[i].TotalWatts }
	fmt.Fprintf(b.out, "model accuracy (informational): CPC1A saves %.1f%% vs Cshallow at 4K QPS (paper %.0f%%), %.1f%% at 50K QPS (paper %.0f%%)\n",
		100*saving(0), 100*experiments.PaperFig7Save4K, 100*saving(len(sh)-1), 100*experiments.PaperFig7Save50K)
}

func (b *bench) printTable(r *result) {
	specs := endToEndMetrics
	if b.trace {
		specs = perLayerMetrics
	}
	fmt.Fprintf(b.out, "points checked: %d, failed: %d\n", r.Attempted, r.Failed)
	for _, s := range specs {
		fmt.Fprintf(b.out, "  %-36s %16.6g %s\n", s.name, r.Metrics[s.name].Value, s.unit)
	}
	if b.trace {
		sum, host := r.Metrics["profile.cpu_ns_per_req"].Value, r.Metrics["profile.host_ns_per_req"].Value
		fmt.Fprintf(b.out, "layer sum %.1f ns/req (process CPU) vs traced host %.1f ns/req (%+.1f%%); tracing overhead %+.1f%%; %.0f samples\n",
			sum, host, 100*(sum/host-1), 100*r.Metrics["profile.overhead_frac"].Value, r.Metrics["profile.samples"].Value)
	}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// processCPU is the user plus system CPU time of every thread of the
// process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runtimeTotalBytes is all memory the Go runtime has mapped from the
// OS. The runtime does not unmap heap arenas, so at the end of a run it
// is the run's peak.
func runtimeTotalBytes() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
