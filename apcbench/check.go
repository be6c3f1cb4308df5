package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/scenario"
)

// referenceSeed is the seed whose per-point digests are stored in
// reference.json. Other seeds are checked for conservation, ranges and
// run-to-run determinism, but have no stored digests.
const referenceSeed = 1

// reference maps a workload name to the digests of its points, in run
// order, at referenceSeed.
type reference map[string][]string

func loadReference(path string) (reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ref, nil
}

// digests returns one digest per point of the pass, in run order: a
// truncated SHA-256 of the point's JSON encoding, which holds every
// simulated number the point reports.
func digests(pass []*scenario.Result) []string {
	var out []string
	for _, res := range pass {
		for i := range res.Points {
			data, err := json.Marshal(&res.Points[i])
			if err != nil {
				// Point holds only numbers, strings and slices of them.
				panic(err)
			}
			sum := sha256.Sum256(data)
			out = append(out, hex.EncodeToString(sum[:12]))
		}
	}
	return out
}

// checkPass checks every point of one pass and returns how many points
// failed, printing each failure. want, when non-nil, holds the digests
// the pass must reproduce (the reference, or an earlier pass of the same
// run); got are the pass's own digests.
func checkPass(pass []*scenario.Result, got, want []string) (attempted, failed int) {
	k := 0
	for _, res := range pass {
		for i := range res.Points {
			var problems []string
			problems = append(problems, checkPoint(&res.Scenario, &res.Points[i])...)
			if want != nil && (k >= len(want) || want[k] != got[k]) {
				problems = append(problems, "digest differs from the expected result")
			}
			if len(problems) > 0 {
				failed++
				fmt.Fprintf(os.Stderr, "apcbench: %s point %d: %v\n", res.Scenario.Name, i, problems)
			}
			k++
			attempted++
		}
	}
	if want != nil && len(want) != len(got) {
		fmt.Fprintf(os.Stderr, "apcbench: pass has %d points, expected %d\n", len(got), len(want))
		failed++
	}
	return attempted, failed
}

// checkPoint verifies the invariants every point must satisfy whatever
// the seed: request conservation and residencies inside [0, 1].
func checkPoint(sc *scenario.Scenario, p *scenario.Point) []string {
	var problems []string
	conserve := func(what string, lhs, rhs uint64) {
		if lhs != rhs {
			problems = append(problems, fmt.Sprintf("%s: %d != %d", what, lhs, rhs))
		}
	}
	fraction := func(what string, v float64) {
		if !(v >= 0 && v <= 1) {
			problems = append(problems, fmt.Sprintf("%s = %g outside [0,1]", what, v))
		}
	}
	fractions := func(where string, cc0, cc1, idle, censored float64, pc1a *float64) {
		fraction(where+"cc0_residency", cc0)
		fraction(where+"cc1_residency", cc1)
		fraction(where+"all_idle", idle)
		fraction(where+"all_idle_censored", censored)
		if pc1a != nil {
			fraction(where+"pc1a_residency", *pc1a)
		}
	}
	servers := func(where string, ss []cluster.ServerStats) {
		for _, s := range ss {
			fractions(fmt.Sprintf("%sserver %d ", where, s.Index), s.CC0Residency, s.CC1Residency,
				s.AllIdle, s.AllIdleCensored, s.PC1AResidency)
		}
	}

	fractions("", p.CC0Residency, p.CC1Residency, p.AllIdle, p.AllIdleCensored, p.PC1AResidency)
	servers("", p.Servers)
	for _, r := range p.Racks {
		fraction(fmt.Sprintf("rack %d all_idle", r.Index), r.AllIdle)
		if r.PC1AResidency != nil {
			fraction(fmt.Sprintf("rack %d pc1a_residency", r.Index), *r.PC1AResidency)
		}
	}

	switch {
	case len(p.Tiers) > 0:
		for i, t := range p.Tiers {
			m := &t.Fleet
			where := "tier " + t.Name + " "
			if sc.Tiers[i].Faults != nil {
				conserve(where+"ok+failed+shed vs generated", m.OK+m.Failed+m.Shed, m.Generated)
			} else {
				conserve(where+"served+dropped vs generated", m.Served+m.Dropped, m.Generated)
			}
			fractions(where, m.CC0Residency, m.CC1Residency, m.AllIdle, m.AllIdleCensored, m.PC1AResidency)
			servers(where, m.Servers)
		}
		conserve("root tier generated vs point generated", p.Tiers[0].Fleet.Generated, p.Generated)
		if p.Client != nil {
			conserve("client served+failed vs generated", p.Client.Served+p.Client.Failed, p.Generated)
		}
	case sc.Cluster != nil && sc.Cluster.Faults != nil:
		conserve("ok+failed+shed vs generated", p.OK+p.Failed+p.Shed, p.Generated)
	default:
		conserve("served+dropped vs generated", p.Served+p.Dropped, p.Generated)
	}
	for _, v := range []float64{p.MeanLatency, p.P99Latency, p.TotalWatts} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			problems = append(problems, fmt.Sprintf("non-finite or negative output %g", v))
		}
	}
	return problems
}

// resolved counts the simulated requests a point resolved: served,
// failed or shed, summed over every tier of a service graph. Under a
// fault layer the logical outcomes (ok + failed + shed) count, not the
// per-attempt completions a hedge race doubles.
func resolved(p *scenario.Point) uint64 {
	fleet := func(served, ok, failed, shed uint64) uint64 {
		if ok+failed+shed > 0 {
			return ok + failed + shed
		}
		return served
	}
	if len(p.Tiers) == 0 {
		return fleet(p.Served, p.OK, p.Failed, p.Shed)
	}
	var n uint64
	for _, t := range p.Tiers {
		n += fleet(t.Fleet.Served, t.Fleet.OK, t.Fleet.Failed, t.Fleet.Shed)
	}
	return n
}

// passRequests is the number of simulated requests one pass resolves.
func passRequests(pass []*scenario.Result) uint64 {
	var n uint64
	for _, res := range pass {
		for i := range res.Points {
			n += resolved(&res.Points[i])
		}
	}
	return n
}
