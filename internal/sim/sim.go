// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the AgilePkgC models (cores, IO links, voltage regulators, power
// management units, workloads) are written against this engine. Time is
// virtual and advances only when events fire; between events the modeled
// hardware is in a piecewise-constant state, which is exactly the
// semantics the power accounting in package power relies on.
//
// The engine is single-threaded and deterministic: events scheduled for
// the same instant fire in scheduling order (FIFO), so repeated runs with
// the same seed produce identical traces. Independent engines are fully
// isolated and may run concurrently on separate goroutines; that is how
// package experiments fans sweep points across cores.
//
// # Implementation
//
// The queue is an inlined 4-ary min-heap over a pooled arena of event
// nodes: scheduling recycles nodes from a free list, so the steady-state
// Schedule→fire cycle performs zero heap allocations and no interface
// boxing. Heap items are 16 bytes, a time plus a key packing the
// sequence number above the arena slot, so four siblings share one cache
// line and one 128-bit compare orders (time, seq). Sifts pick the
// minimum child with branch-free arithmetic selects, and a pop moves its
// hole to a leaf before sifting the displaced last item back up. Events
// scheduled for the current instant bypass the heap entirely through a
// FIFO ring (the common cascade pattern where an event schedules
// immediate follow-ups). Cancel releases the node immediately but leaves
// the queue entry behind as a tombstone: a node remembers the key of the
// entry it backs and forgets it on release, so the scheduler discards an
// entry whose key no longer matches when it surfaces, and sifts never
// maintain back-pointers into the arena. Pending() counts only live
// events. Handles are generation-checked: a stale Event (fired or
// canceled) can never cancel a recycled node. See DESIGN.md §1 for the
// full ordering contract and the key-space limits.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
//
// One nanosecond is fine-grained enough for every mechanism in the paper:
// the agile PMU runs at 500 MHz (2 ns per cycle), FIVR voltage slews at
// 2 mV/ns, and the shortest IO transition (L0p exit) is about 10 ns.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is a separate
// name from Time only for documentation; arithmetic mixes them freely.
type Duration = Time

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
//
//apcvet:noalloc
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < 10*Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < 10*Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// Event is a handle to a scheduled callback, returned by Engine.Schedule
// and Engine.At. It is a small value (copy it freely); the zero Event is
// valid and permanently not pending, so model structs can hold an Event
// field and Cancel it unconditionally.
//
// Handles are generation-checked against the engine's node arena: once
// the event fires or is canceled its node may be recycled for a future
// event, but this handle keeps reporting Pending() == false and
// Cancel() == false forever.
type Event struct {
	eng  *Engine
	at   Time
	gen  uint32
	slot int32
}

// At returns the virtual time the event was scheduled for.
func (ev Event) At() Time { return ev.at }

// Cancel prevents the event from firing and removes it from the queue.
// Canceling an already-fired, already-canceled, or zero Event is a no-op.
// Cancel returns true if the event was pending and is now canceled.
//
//apcvet:noalloc
func (ev Event) Cancel() bool {
	if ev.eng == nil {
		return false
	}
	return ev.eng.cancel(ev.slot, ev.gen)
}

// Pending reports whether the event is still scheduled to fire.
func (ev Event) Pending() bool {
	if ev.eng == nil {
		return false
	}
	n := &ev.eng.nodes[ev.slot]
	return n.gen == ev.gen
}

// node is one slot of the engine's pooled event arena. A node is live
// while its event is queued (in the heap or the same-instant ring) and is
// recycled through the free list once the event fires or is canceled.
//
// key is the packed (seq, slot) key of the queue entry the node currently
// backs, or deadKey while the node is free: an entry is live exactly when
// its key equals its node's key, so releasing a node turns its abandoned
// queue entry into a tombstone without touching the queue. gen guards the
// public handles instead, because keys restart with seq on Reset and gen
// never does. pos records only which queue holds the node, never a
// position: sift operations would otherwise have to write a back-pointer
// into the arena on every level they touch.
type node struct {
	fn  func()
	key uint64
	gen uint32
	pos int32 // posHeap, posRing, or posFree
}

const (
	posFree int32 = -1
	posRing int32 = -2
	posHeap int32 = -3
)

// Queue keys pack an event's sequence number above its arena slot:
// key = seq<<slotBits | slot. Sequence numbers are unique, so key order
// is seq order and one 64-bit compare breaks time ties, while the slot
// rides along for free. The packing caps the arena at maxSlots
// concurrently pending events and one engine run (between Resets) at
// maxSeq+1 scheduled events; both limits panic rather than wrap, since a
// wrapped key would silently reorder events.
const (
	slotBits = 20
	slotMask = 1<<slotBits - 1
	maxSlots = 1 << slotBits
	maxSeq   = 1<<(64-slotBits) - 2 // keeps every real key below deadKey
	deadKey  = ^uint64(0)           // node.key of a free node; matches no entry
)

// heapItem is one 16-byte entry of the 4-ary min-heap, ordered by
// (at, key). Four siblings fill one 64-byte cache line, and the ordering
// key is stored inline so sift comparisons never chase into the arena.
type heapItem struct {
	at  Time
	key uint64
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now Time
	seq uint64

	heap     []heapItem
	heapLive int // heap entries whose event is not canceled
	nodes    []node
	free     []int32

	// ring holds the keys of events scheduled for exactly the current
	// instant, in FIFO order; ringHead indexes the next entry, ringLive
	// counts the non-canceled ones. Every ring entry's time is e.now
	// (time cannot advance past an instant while events at it remain).
	ring     []uint64
	ringHead int
	ringLive int

	// Stats
	fired uint64
}

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
//
//apcvet:noalloc
func (e *Engine) Now() Time { return e.now }

// EventsFired returns the total number of events executed so far. It is
// useful for benchmarking and for asserting that flows have quiesced.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending returns the number of events currently queued. Canceled events
// are never counted.
func (e *Engine) Pending() int { return e.heapLive + e.ringLive }

// Reset returns the engine to its initial state — time zero, empty
// queue, zero counters, the full sequence range — while keeping the node
// arena and queue storage, so a simulation can be rebuilt on the engine
// without re-growing any backing array. Every outstanding Event handle
// goes permanently stale, exactly as if each pending event had been
// canceled. The free list is stacked so slots are reissued in arena
// order: a rebuilt simulation sees the same slot numbering a fresh engine
// would produce, which keeps reset-vs-fresh runs easy to diff
// event-for-event.
func (e *Engine) Reset() {
	e.now, e.seq, e.fired = 0, 0, 0
	e.heap = e.heap[:0]
	e.heapLive = 0
	e.ring = e.ring[:0]
	e.ringHead, e.ringLive = 0, 0
	e.free = e.free[:0]
	for i := len(e.nodes) - 1; i >= 0; i-- {
		nd := &e.nodes[i]
		nd.fn = nil
		nd.key = deadKey
		nd.gen++
		nd.pos = posFree
		e.free = append(e.free, int32(i))
	}
}

// Schedule arranges for fn to run after delay d. A negative delay panics:
// the hardware being modeled cannot signal into the past.
//
//apcvet:noalloc
func (e *Engine) Schedule(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d)) //apcvet:alloc cold error path: a model bug aborts the run
	}
	return e.At(e.now+d, fn)
}

// At arranges for fn to run at absolute time t, which must not be in the
// past. Events scheduled for the same instant run in scheduling order.
//
//apcvet:noalloc
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now)) //apcvet:alloc cold error path: a model bug aborts the run
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	seq := e.seq
	if seq > maxSeq {
		panic(fmt.Sprintf("sim: sequence space exhausted after %d events; Reset the engine", seq)) //apcvet:alloc cold error path: the run cannot continue without reordering
	}
	e.seq++
	slot := e.alloc()
	key := seq<<slotBits | uint64(slot)
	nd := &e.nodes[slot]
	nd.fn = fn
	nd.key = key
	if t == e.now {
		// Same-instant fast path: FIFO ring, no heap traffic. All ring
		// entries share time e.now and increasing seq, so ring order is
		// exactly (time, seq) order.
		if e.ringHead == len(e.ring) {
			e.ring = e.ring[:0]
			e.ringHead = 0
		}
		nd.pos = posRing
		e.ring = append(e.ring, key) //apcvet:alloc ring growth: amortized to the deepest same-instant cascade
		e.ringLive++
	} else {
		nd.pos = posHeap
		e.heapPush(heapItem{at: t, key: key})
		e.heapLive++
	}
	return Event{eng: e, at: t, gen: nd.gen, slot: slot}
}

// alloc pops a free node slot, growing the arena when the free list is
// empty. Node generations start at 1 so a live node never matches a
// zero handle.
//
//apcvet:noalloc
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		slot := e.free[n-1]
		e.free = e.free[:n-1]
		return slot
	}
	if len(e.nodes) == maxSlots {
		panic("sim: more than 2^20 events pending at once")
	}
	e.nodes = append(e.nodes, node{key: deadKey, gen: 1, pos: posFree}) //apcvet:alloc arena growth: amortized to the peak number of pending events
	return int32(len(e.nodes) - 1)
}

// release recycles a node after its event fired or was canceled, bumping
// the generation so outstanding handles go stale and resetting the key so
// the node's queue entry, if any is left, reads as a tombstone.
//
//apcvet:noalloc
func (e *Engine) release(slot int32) {
	nd := &e.nodes[slot]
	nd.fn = nil
	nd.key = deadKey
	nd.gen++
	nd.pos = posFree
	e.free = append(e.free, slot)
}

// live reports whether a queue entry's event is still pending.
//
//apcvet:noalloc
func (e *Engine) live(key uint64) bool {
	return e.nodes[key&slotMask].key == key
}

// cancel releases the event in slot if gen still matches. The queue
// entry itself is left behind; releasing resets the node's key, so the
// entry no longer matches and is skipped when it surfaces.
//
//apcvet:noalloc
func (e *Engine) cancel(slot int32, gen uint32) bool {
	nd := &e.nodes[slot]
	if nd.gen != gen {
		return false
	}
	inRing := nd.pos == posRing
	e.release(slot) // before compaction, so the dead entry no longer matches
	if inRing {
		e.ringLive--
		return true
	}
	e.heapLive--
	// Bound tombstone buildup: park/idle timers in the device models are
	// canceled far more often than they fire, and letting their dead
	// entries pile up would deepen every subsequent sift. Compact once
	// half the heap is dead (the 64 floor keeps tiny heaps out of the
	// amortization).
	if len(e.heap) >= 64 && e.heapLive*2 <= len(e.heap) {
		e.compactHeap()
	}
	return true
}

// compactHeap drops canceled entries and re-heapifies. The heap order of
// the surviving events is unchanged — pops depend only on (time, seq),
// not on array layout — so compaction is invisible to the simulation.
//
//apcvet:noalloc
func (e *Engine) compactHeap() {
	w := 0
	for _, it := range e.heap {
		if e.live(it.key) {
			e.heap[w] = it
			w++
		}
	}
	e.heap = e.heap[:w]
	for i := (w - 2) >> 2; i >= 0; i-- {
		e.siftDown(i, e.heap[i])
	}
}

// Step executes the next pending event, advancing time to it. It returns
// false if the queue is empty.
func (e *Engine) Step() bool {
	return e.step(1<<63 - 1)
}

// step fires the earliest event with time <= limit, in exact (time, seq)
// order across the heap and the same-instant ring. It is the single
// scheduling pass shared by Step and Run.
//
//apcvet:noalloc
func (e *Engine) step(limit Time) bool {
	// Find the live ring head, skipping entries canceled in place.
	ringKey, haveRing := uint64(0), false
	for e.ringHead < len(e.ring) {
		if k := e.ring[e.ringHead]; e.live(k) {
			ringKey, haveRing = k, true
			break
		}
		e.ringHead++
	}
	if !haveRing && e.ringHead > 0 {
		e.ring = e.ring[:0]
		e.ringHead = 0
	}

	// Discard canceled entries that have surfaced at the heap top, so the
	// ring/heap comparison below sees only live events.
	for len(e.heap) > 0 && !e.live(e.heap[0].key) {
		e.heapPopTop()
	}

	// Ring entries are at e.now, so they beat any strictly-later heap
	// entry; a heap entry at the same instant wins on lower seq (it was
	// scheduled earlier, before time reached this instant). Keys order
	// exactly as their sequence numbers.
	if len(e.heap) > 0 && (!haveRing || (e.heap[0].at == e.now && e.heap[0].key < ringKey)) {
		top := e.heap[0]
		if top.at > limit {
			return false
		}
		e.heapPopTop()
		e.heapLive--
		e.now = top.at
		e.fire(int32(top.key & slotMask))
		return true
	}
	if !haveRing {
		return false
	}
	e.ringHead++
	e.ringLive--
	e.fire(int32(ringKey & slotMask))
	return true
}

// fire releases the node (so the event's handle is no longer Pending
// while its callback runs, and the slot can be rescheduled immediately)
// and runs the callback.
//
//apcvet:noalloc
func (e *Engine) fire(slot int32) {
	fn := e.nodes[slot].fn
	e.release(slot)
	e.fired++
	fn()
}

// Run executes events until the queue is empty or the next event is after
// `until`; it then advances time to exactly `until`. Running to a time in
// the past panics.
func (e *Engine) Run(until Time) {
	if until < e.now {
		panic(fmt.Sprintf("sim: run until %v before now %v", until, e.now))
	}
	for e.step(until) {
	}
	e.now = until
}

// RunUntilQuiescent executes events until none remain or the limit on the
// number of events is reached. It returns the number of events executed.
// It is intended for flow tests ("after the wake event, the system settles
// in PC0") where the natural end is an empty queue.
func (e *Engine) RunUntilQuiescent(maxEvents int) int {
	n := 0
	for n < maxEvents && e.Step() {
		n++
	}
	return n
}

// lessBit returns 1 if a orders before b by (at, key) and 0 otherwise,
// without a branch: it is the borrow out of the 128-bit subtraction
// a - b. Times are never negative (the clock starts at zero and never
// runs backwards), so the unsigned compare of the high words is exact.
//
//apcvet:noalloc
func lessBit(a, b heapItem) uint64 {
	_, borrow := bits.Sub64(a.key, b.key, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// pick returns whichever of a and b orders first, and 1 if that is b.
// Distinct entries never tie (keys are unique). The selection is
// arithmetic — x ^ ((x^y) & mask) — so the compiler cannot turn it back
// into an unpredictable branch.
//
//apcvet:noalloc
func pick(a, b heapItem) (heapItem, uint64) {
	bit := lessBit(b, a)
	m := -bit
	a.at ^= (a.at ^ b.at) & Time(m)
	a.key ^= (a.key ^ b.key) & m
	return a, bit
}

// heapPush inserts an item and sifts it up.
//
//apcvet:noalloc
func (e *Engine) heapPush(it heapItem) {
	e.heap = append(e.heap, it) //apcvet:alloc heap growth: amortized to the peak queue depth
	e.siftUp(len(e.heap)-1, 0, it)
}

// heapPopTop removes the minimum item (index 0).
//
//apcvet:noalloc
func (e *Engine) heapPopTop() {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}

// siftUp places it in the hole at index i, moving ancestors down until
// it sits below an item that orders first or reaches index top.
//
//apcvet:noalloc
func (e *Engine) siftUp(i, top int, it heapItem) {
	h := e.heap
	for i > top {
		p := (i - 1) >> 2
		if lessBit(it, h[p]) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

// siftDown places it in the subtree rooted at hole i, bottom-up: the hole
// first descends to a leaf along the minimum child of each level — one
// branch-free four-way tournament per level, with no compare against it —
// and it then sifts up from that leaf, never above i. It usually came from
// the bottom of the heap, so the climb back is short; that trades the
// classic sift-down's fifth compare per level for a rarely-taken one.
//
//apcvet:noalloc
func (e *Engine) siftDown(i int, it heapItem) {
	h := e.heap
	n := len(h)
	top := i
	c := i<<2 + 1
	for c+3 < n {
		g := h[c : c+4 : c+4]
		m01, b01 := pick(g[0], g[1])
		m23, b23 := pick(g[2], g[3])
		m, b := pick(m01, m23)
		i01, i23 := c+int(b01), c+2+int(b23)
		h[i] = m
		i = i01 ^ ((i01 ^ i23) & -int(b))
		c = i<<2 + 1
	}
	if c < n {
		// Partial last group: 1–3 children, all leaves.
		m, mi := h[c], c
		for j := c + 1; j < n; j++ {
			var b uint64
			m, b = pick(m, h[j])
			mi ^= (mi ^ j) & -int(b)
		}
		h[i] = m
		i = mi
	}
	e.siftUp(i, top, it)
}
