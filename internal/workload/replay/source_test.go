package replay_test

import (
	"testing"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// memTrace builds an in-memory trace from explicit records.
func memTrace(t testing.TB, meta replay.Meta, recs []replay.Record) *replay.Reader {
	t.Helper()
	var buf replay.MemBuffer
	w, err := replay.NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := buf.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	r, err := replay.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

var sourceMeta = replay.Meta{
	Name: "source-test", MeanQPS: 100000, ServiceMean: 10e-6,
	Connections: 4, MemAccesses: 2,
}

// collect drives a bound Replay through explicit windows and returns
// the (arrival time, request ID) pairs the sink saw.
type arrival struct {
	at  sim.Time
	id  uint64
	svc sim.Duration
}

func bindReplay(t *testing.T, rd *replay.Reader, opts replay.Options) (*sim.Engine, *replay.Replay, *[]arrival) {
	t.Helper()
	rp, err := replay.New(rd, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	got := &[]arrival{}
	sink := func(req *workload.Request) {
		*got = append(*got, arrival{at: req.Arrival, id: req.ID, svc: req.Service})
		rp.Release(req)
	}
	if err := rp.Bind(eng, sink); err != nil {
		t.Fatal(err)
	}
	return eng, rp, got
}

// TestReplayWindowRebase pins the offset-rebasing contract: a drain gap
// between measurement windows shifts engine time, but the trace stream
// must resume exactly where the previous window cut it — the gap is
// excised from the stream timeline, and the record left unconsumed at
// the boundary is the first to replay in the next window.
func TestReplayWindowRebase(t *testing.T) {
	us := func(v int64) sim.Time { return sim.Time(v) * sim.Microsecond }
	rd := memTrace(t, sourceMeta, []replay.Record{
		{TS: us(10), Service: us(1)},
		{TS: us(20), Service: us(2)},
		{TS: us(30), Service: us(3)},
		{TS: us(40), Service: us(4)},
	})
	eng, rp, got := bindReplay(t, rd, replay.Options{})

	// Window 1: [0, 25µs) — replays records at 10µs and 20µs.
	rp.Start(us(25))
	eng.Run(us(25))
	if len(*got) != 2 || (*got)[0].at != us(10) || (*got)[1].at != us(20) {
		t.Fatalf("window 1 arrivals %+v, want ts 10µs and 20µs", *got)
	}
	// Idle gap: the engine runs 100µs past the window (a drain). The
	// pending record (30µs) fires as a noop and must stay unconsumed.
	eng.Run(us(125))
	if len(*got) != 2 {
		t.Fatalf("drain gap replayed %d records, want none", len(*got)-2)
	}
	// Window 2 starts at 125µs: stream position was 25µs, so record
	// ts=30µs replays at 125+(30−25) = 130µs, ts=40µs at 140µs.
	rp.Start(us(200))
	eng.Run(us(200))
	if len(*got) != 4 {
		t.Fatalf("window 2 replayed %d records, want 2 (got %+v)", len(*got)-2, *got)
	}
	if (*got)[2].at != us(130) || (*got)[3].at != us(140) {
		t.Errorf("window 2 arrivals at %v and %v, want 130µs and 140µs", (*got)[2].at, (*got)[3].at)
	}
	if g := rp.Generated(); g != 4 {
		t.Errorf("Generated() = %d, want 4", g)
	}
	// IDs stay sequential across windows.
	for i, a := range *got {
		if a.id != uint64(i) {
			t.Errorf("arrival %d has ID %d", i, a.id)
		}
	}
}

// TestReplayLoop pins the wrap semantics: iteration j replays with
// every timestamp shifted by j·lastTS, service demands untouched.
func TestReplayLoop(t *testing.T) {
	us := func(v int64) sim.Time { return sim.Time(v) * sim.Microsecond }
	rd := memTrace(t, sourceMeta, []replay.Record{
		{TS: us(10), Service: us(1)},
		{TS: us(40), Service: us(2)},
	})
	eng, rp, got := bindReplay(t, rd, replay.Options{Loop: true})
	rp.Start(us(200))
	eng.Run(us(200))
	// Period = lastTS = 40µs: arrivals at 10,40, 50,80, 90,120, 130,160, 170,200?
	// 200 is the stop time; the record scheduled there noops (now >= stopAt).
	want := []sim.Time{us(10), us(40), us(50), us(80), us(90), us(120), us(130), us(160), us(170)}
	if len(*got) != len(want) {
		t.Fatalf("looped replay emitted %d arrivals, want %d: %+v", len(*got), len(want), *got)
	}
	for i, a := range *got {
		if a.at != want[i] {
			t.Errorf("arrival %d at %v, want %v", i, a.at, want[i])
		}
		wantSvc := us(1 + int64(i)%2)
		if a.svc != wantSvc {
			t.Errorf("arrival %d service %v, want %v", i, a.svc, wantSvc)
		}
	}
}

// TestReplayLoopRejectsZeroPeriod pins the livelock guard: a trace
// whose last timestamp is zero cannot loop (every iteration would land
// on the same instant forever).
func TestReplayLoopRejectsZeroPeriod(t *testing.T) {
	rd := memTrace(t, sourceMeta, []replay.Record{{TS: 0, Service: 1}})
	if _, err := replay.New(rd, replay.Options{Loop: true}); err == nil {
		t.Fatal("New accepted a looping zero-period trace")
	}
}

// TestReplayTimeScale pins scaling semantics: arrival timestamps
// stretch by the scale, service demands do not, and scale 1 (or 0,
// the default) takes the integer bypass.
func TestReplayTimeScale(t *testing.T) {
	us := func(v int64) sim.Time { return sim.Time(v) * sim.Microsecond }
	recs := []replay.Record{
		{TS: us(10), Service: us(3)},
		{TS: us(20), Service: us(3)},
	}
	for _, c := range []struct {
		scale float64
		want  []sim.Time
	}{
		{0, []sim.Time{us(10), us(20)}},
		{1, []sim.Time{us(10), us(20)}},
		{2, []sim.Time{us(20), us(40)}},
		{0.5, []sim.Time{us(5), us(10)}},
	} {
		rd := memTrace(t, sourceMeta, recs)
		eng, rp, got := bindReplay(t, rd, replay.Options{TimeScale: c.scale})
		rp.Start(us(100))
		eng.Run(us(100))
		if len(*got) != len(c.want) {
			t.Fatalf("scale %g emitted %d arrivals, want %d", c.scale, len(*got), len(c.want))
		}
		for i, a := range *got {
			if a.at != c.want[i] {
				t.Errorf("scale %g arrival %d at %v, want %v", c.scale, i, a.at, c.want[i])
			}
			if a.svc != us(3) {
				t.Errorf("scale %g arrival %d service %v — service demands must not scale", c.scale, i, a.svc)
			}
		}
	}
	rd := memTrace(t, sourceMeta, recs)
	if _, err := replay.New(rd, replay.Options{TimeScale: -1}); err == nil {
		t.Fatal("New accepted a negative time scale")
	}
}

// TestReplayRebind pins the reuse contract: Bind rewinds the trace and
// resets all replay state, so a rebound Replay on a fresh engine emits
// the identical stream.
func TestReplayRebind(t *testing.T) {
	us := func(v int64) sim.Time { return sim.Time(v) * sim.Microsecond }
	rd := memTrace(t, sourceMeta, []replay.Record{
		{TS: us(10), Service: us(1), Conn: 2, Mem: 5},
		{TS: us(20), Service: us(2), Conn: 3, Mem: 6},
	})
	eng, rp, got := bindReplay(t, rd, replay.Options{})
	rp.Start(us(50))
	eng.Run(us(50))
	first := append([]arrival(nil), *got...)

	eng2 := sim.NewEngine()
	var second []arrival
	if err := rp.Bind(eng2, func(req *workload.Request) {
		second = append(second, arrival{at: req.Arrival, id: req.ID, svc: req.Service})
		rp.Release(req)
	}); err != nil {
		t.Fatal(err)
	}
	rp.Start(us(50))
	eng2.Run(us(50))
	if len(second) != len(first) {
		t.Fatalf("rebound replay emitted %d arrivals, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("arrival %d changed across rebind: %+v vs %+v", i, first[i], second[i])
		}
	}
	if rp.Generated() != uint64(len(second)) {
		t.Errorf("Generated() = %d after rebind, want %d", rp.Generated(), len(second))
	}
}

// TestReplaySteadyStateAllocs is the replay read path's alloc gate, in
// the style of TestRouteSteadyStateAllocs: once the free list, bufio
// window and event arena are primed, driving a fleet from a looping
// trace — decode, schedule, emit, release, rewind-on-wrap — allocates
// nothing.
func TestReplaySteadyStateAllocs(t *testing.T) {
	spec := workload.MemcachedBursty(300000, 8)
	var buf replay.MemBuffer
	if _, err := replay.Synthesize(&buf, spec, 1, 0, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := buf.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	rd, err := replay.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := replay.New(rd, replay.Options{Loop: true})
	if err != nil {
		t.Fatal(err)
	}
	members := make([]cluster.MemberConfig, 8)
	for i := range members {
		members[i] = cluster.MemberConfig{SoC: soc.DefaultConfig(soc.CPC1A), Server: server.DefaultConfig()}
	}
	g, err := cluster.NewGraph(cluster.GraphConfig{Tiers: []cluster.TierConfig{{
		Cluster: cluster.Config{
			Policy:    cluster.PowerAware,
			P99Target: 300 * sim.Microsecond,
			Members:   members,
			NewSource: func(eng *sim.Engine, _ workload.Spec, _ uint64, sink func(*workload.Request)) workload.Source {
				if err := rp.Bind(eng, sink); err != nil {
					t.Fatal(err)
				}
				return rp
			},
		},
		Spec: rd.Header().Spec(),
	}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(5 * sim.Millisecond) // prime pools, arena, bufio window, free list
	allocs := testing.AllocsPerRun(3, func() {
		g.Run(sim.Millisecond)
	})
	if allocs > 0 {
		t.Errorf("steady-state replay Run allocates %.1f times per ms window, want 0", allocs)
	}
	if rp.Generated() == 0 {
		t.Fatal("replay fleet generated nothing")
	}
}
