package sim

// Tests for the pooled 4-ary-heap engine: generation safety of recycled
// handles, the key-space guards, and the zero-allocation guarantee on
// the steady-state schedule→fire cycle. Equivalence against the
// container/heap oracle lives in oracle_test.go.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestStaleHandleCannotTouchRecycledSlot checks the generation guard: a
// handle to a fired or canceled event must stay dead even after its
// arena slot is recycled for a new event.
func TestStaleHandleCannotTouchRecycledSlot(t *testing.T) {
	e := NewEngine()
	h1 := e.Schedule(5, func() {})
	e.Run(10)
	if h1.Pending() {
		t.Fatal("fired event still pending")
	}
	// The freed slot is recycled by the next Schedule.
	ran := false
	h2 := e.Schedule(5, func() { ran = true })
	if h1.Pending() {
		t.Fatal("stale handle reports recycled slot as pending")
	}
	if h1.Cancel() {
		t.Fatal("stale handle canceled a recycled slot's event")
	}
	if !h2.Pending() {
		t.Fatal("new event should be pending")
	}
	e.Run(20)
	if !ran {
		t.Fatal("new event did not fire")
	}

	// Same via Cancel: cancel, recycle, poke the stale handle.
	h3 := e.Schedule(5, func() {})
	h3.Cancel()
	ran = false
	h4 := e.Schedule(5, func() { ran = true })
	if h3.Pending() || h3.Cancel() {
		t.Fatal("canceled handle came back to life after slot reuse")
	}
	e.Run(e.Now() + 10)
	if !ran {
		t.Fatal("event after canceled-slot reuse did not fire")
	}
	_ = h4
}

// TestCancelRemovesFromQueue checks the true-removal satellite: canceled
// events leave Pending() immediately instead of lingering as graveyard
// entries.
func TestCancelRemovesFromQueue(t *testing.T) {
	e := NewEngine()
	var evs []Event
	for i := 0; i < 100; i++ {
		evs = append(evs, e.Schedule(Time(10+i), func() {}))
	}
	for i := 0; i < 100; i += 2 {
		evs[i].Cancel()
	}
	if got := e.Pending(); got != 50 {
		t.Fatalf("Pending = %d after canceling half, want 50", got)
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != 50 {
		t.Fatalf("fired %d events, want 50", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}

// TestSameInstantRingInterleavesWithHeap checks the (time, seq) contract
// across the ring fast path: events already in the heap for instant T
// precede events scheduled *at* T for T, and FIFO order holds within
// each.
func TestSameInstantRingInterleavesWithHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { // seq 0, fires first at t=10
		order = append(order, 0)
		e.Schedule(0, func() { order = append(order, 3) }) // ring, seq 3
		e.Schedule(0, func() { order = append(order, 4) }) // ring, seq 4
	})
	e.Schedule(10, func() { order = append(order, 1) }) // heap, seq 1
	e.Schedule(10, func() { order = append(order, 2) }) // heap, seq 2
	e.Run(10)
	want := []int{0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestCancelRingEvent cancels a same-instant event between scheduling
// and firing.
func TestCancelRingEvent(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() {
		e.Schedule(0, func() { order = append(order, 1) })
		bad := e.Schedule(0, func() { t.Fatal("canceled ring event ran") })
		e.Schedule(0, func() { order = append(order, 2) })
		bad.Cancel()
		if e.Pending() != 2 {
			t.Fatalf("Pending = %d inside handler, want 2", e.Pending())
		}
	})
	e.Run(20)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

// mustPanic runs f and returns its panic message, failing the test if f
// returns normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("did not panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// TestSeqExhaustionPanics pins the sequence guard: the last two
// sequence numbers the key packing can hold still schedule and fire in
// order, the next Schedule panics instead of wrapping into a key that
// would sort first, and Reset restores the full range.
func TestSeqExhaustionPanics(t *testing.T) {
	e := NewEngine()
	e.seq = maxSeq - 1
	var order []int
	e.Schedule(5, func() { order = append(order, 0) })
	e.Schedule(5, func() { order = append(order, 1) }) // seq == maxSeq
	msg := mustPanic(t, func() { e.Schedule(5, func() {}) })
	if !strings.Contains(msg, "sequence space exhausted") {
		t.Errorf("panic %q does not name the exhausted sequence space", msg)
	}
	e.Run(10)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("events at the top of the seq range fired %v, want [0 1]", order)
	}

	e.Reset()
	if e.seq != 0 {
		t.Fatalf("Reset left seq at %d, want 0", e.seq)
	}
	ran := false
	e.Schedule(1, func() { ran = true })
	e.Run(2)
	if !ran {
		t.Fatal("event after Reset did not fire")
	}
}

// TestArenaSlotCapPanics pins the arena guard: the highest slot the key
// packing can hold is issued and fires, and growing past it panics
// instead of letting the slot bleed into the sequence bits.
func TestArenaSlotCapPanics(t *testing.T) {
	e := NewEngine()
	// Stand in for maxSlots-1 pending events without scheduling them:
	// every slot but the last is taken and the free list is empty.
	e.nodes = make([]node, maxSlots-1, maxSlots)
	ran := false
	ev := e.Schedule(5, func() { ran = true })
	if ev.slot != slotMask {
		t.Fatalf("last free slot = %d, want %d", ev.slot, slotMask)
	}
	msg := mustPanic(t, func() { e.Schedule(5, func() {}) })
	if !strings.Contains(msg, "events pending at once") {
		t.Errorf("panic %q does not name the arena cap", msg)
	}
	e.Run(10)
	if !ran {
		t.Fatal("event in the last slot did not fire")
	}
	if ev := e.Schedule(1, func() {}); ev.slot != slotMask {
		t.Fatalf("recycled slot = %d, want %d", ev.slot, slotMask)
	}
}

// TestScheduleFireAllocFree is the allocs/op regression gate for the
// pooled engine: after warmup, the schedule→fire cycle must not allocate
// on either the heap path or the same-instant ring path.
func TestScheduleFireAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1000; i++ { // warm the arena, heap, and ring
		e.Schedule(Duration(i%3), fn)
	}
	for e.Step() {
	}

	if avg := testing.AllocsPerRun(2000, func() {
		e.Schedule(1, fn)
		e.Step()
	}); avg != 0 {
		t.Errorf("heap path: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		e.Schedule(0, fn)
		e.Step()
	}); avg != 0 {
		t.Errorf("ring path: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		ev := e.Schedule(5, fn)
		ev.Cancel()
	}); avg != 0 {
		t.Errorf("schedule+cancel: %v allocs/op, want 0", avg)
	}
}

// BenchmarkScheduleFireSameInstant measures the ring fast path.
func BenchmarkScheduleFireSameInstant(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(0, fn)
		e.Step()
	}
}

// BenchmarkScheduleCancel measures schedule followed by true removal.
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i%64)+1, fn).Cancel()
	}
}

// BenchmarkChurn1k measures schedule→fire with 1024 events resident and
// every new event landing at the back of the queue, so each push stops
// at its leaf. 1k is deeper than any measured workload (DESIGN.md §1);
// BenchmarkChurnRandom* cover the measured depths.
func BenchmarkChurn1k(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(Duration(1+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1025, fn)
		e.Step()
	}
}

// benchChurnRandom measures schedule→fire with `resident` events queued
// and pseudo-random delays, so pushes land at random depths and every
// pop's path down the heap is data-dependent — the regime the device
// models create.
func benchChurnRandom(b *testing.B, resident int) {
	e := NewEngine()
	fn := func() {}
	rng := rand.New(rand.NewSource(1))
	delays := make([]Duration, 4096)
	for i := range delays {
		delays[i] = Duration(1 + rng.Intn(1000))
	}
	for i := 0; i < resident; i++ {
		e.Schedule(delays[i&4095], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(delays[i&4095], fn)
		e.Step()
	}
}

// The resident depths match the measured workloads: 4 is a lightly
// loaded server, 44 the mean heap depth of the faulty service graph
// (peak 82), and 1k a deep stress point.
func BenchmarkChurnRandom4(b *testing.B)  { benchChurnRandom(b, 4) }
func BenchmarkChurnRandom44(b *testing.B) { benchChurnRandom(b, 44) }
func BenchmarkChurnRandom1k(b *testing.B) { benchChurnRandom(b, 1024) }
