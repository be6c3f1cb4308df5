package sim

// The container/heap oracle: a reference queue with the documented
// (time, seq) lazy-cancel semantics, a harness that drives it in
// lockstep with the real engine, and the equivalence suites built on
// it, plus direct checks of the packed-key heap's compare and pop.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refEvent / refQueue reimplement the original container/heap engine
// semantics (lazy cancellation, (time, seq) ordering) as an oracle.
type refEvent struct {
	at       Time
	seq      uint64
	id       int
	canceled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any     { old := *q; n := len(old); ev := old[n-1]; *q = old[:n-1]; return ev }
func (q *refQueue) popLive() *refEvent {
	for q.Len() > 0 {
		ev := heap.Pop(q).(*refEvent)
		if !ev.canceled {
			return ev
		}
	}
	return nil
}

// oracle drives the real engine and the reference heap in lockstep and
// records both fire orders. Times are absolute so shapes can sit near
// the top of the time range.
type oracle struct {
	t     *testing.T
	label string
	e     *Engine
	ref   refQueue
	seq   uint64
	now   Time // the reference's clock

	got, want []int
	fired     []bool // by id, from the reference's side
	live      []livePair

	maxHeap     int // deepest heap seen, tombstones included
	compactions int // cancels that shrank the heap array
	ties        int // reference pops at the same time as the previous pop
}

type livePair struct {
	ev  Event
	ref *refEvent
}

func newOracle(t *testing.T, label string) *oracle {
	return &oracle{t: t, label: label, e: NewEngine()}
}

// at schedules one event at absolute time t (>= now) on both sides.
func (o *oracle) at(t Time) {
	id := len(o.fired)
	o.fired = append(o.fired, false)
	ev := o.e.At(t, func() { o.got = append(o.got, id) })
	re := &refEvent{at: t, seq: o.seq, id: id}
	o.seq++
	heap.Push(&o.ref, re)
	o.live = append(o.live, livePair{ev, re})
	o.maxHeap = max(o.maxHeap, len(o.e.heap))
}

// after schedules one event d after the current time, saturating at the
// top of the time range.
func (o *oracle) after(d Duration) {
	if d > 1<<63-1-o.now {
		d = 1<<63 - 1 - o.now
	}
	o.at(o.now + d)
}

// cancel cancels a random event (live, fired, or already canceled) on
// both sides and checks that the engine agrees on whether it was pending.
// With pendingOnly it draws from the events still pending, so every
// call kills one.
func (o *oracle) cancel(rng *rand.Rand, pendingOnly bool) {
	pool := o.live
	if pendingOnly {
		pool = nil
		for _, p := range o.live {
			if !p.ref.canceled && !o.fired[p.ref.id] {
				pool = append(pool, p)
			}
		}
	}
	if len(pool) == 0 {
		return
	}
	p := pool[rng.Intn(len(pool))]
	before := len(o.e.heap)
	got := p.ev.Cancel()
	want := !p.ref.canceled && !o.fired[p.ref.id]
	if got != want {
		o.t.Fatalf("%s: Cancel(id %d) = %v, reference says %v", o.label, p.ref.id, got, want)
	}
	if got {
		p.ref.canceled = true
	}
	if len(o.e.heap) < before {
		o.compactions++
	}
}

// step fires the next event on both sides.
func (o *oracle) step() {
	stepped := o.e.Step()
	re := o.ref.popLive()
	if stepped != (re != nil) {
		o.t.Fatalf("%s: Step=%v but reference has live=%v", o.label, stepped, re != nil)
	}
	if re == nil {
		return
	}
	if len(o.want) > 0 && re.at == o.now {
		o.ties++
	}
	o.now = re.at
	o.fired[re.id] = true
	o.want = append(o.want, re.id)
}

// drain empties both queues and requires identical fire order.
func (o *oracle) drain() {
	for o.e.Pending() > 0 {
		o.step()
	}
	o.step() // both sides must now report empty
	if len(o.got) != len(o.want) {
		o.t.Fatalf("%s: fired %d events, reference fired %d", o.label, len(o.got), len(o.want))
	}
	for i := range o.got {
		if o.got[i] != o.want[i] {
			o.t.Fatalf("%s: fire order diverges at %d: got %d want %d", o.label, i, o.got[i], o.want[i])
		}
	}
}

// TestEquivalenceWithReferenceHeap drives the real engine and the
// reference heap through identical random schedule/cancel/step
// interleavings (including same-instant bursts and cancellations of
// both heap and ring events) and requires identical fire order.
func TestEquivalenceWithReferenceHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		o := newOracle(t, fmt.Sprintf("trial %d", trial))
		for op := 0; op < 400; op++ {
			switch rng.Intn(5) {
			case 0, 1: // schedule with a random delay
				o.after(Duration(rng.Intn(50)))
			case 2: // same-instant burst
				for n := 1 + rng.Intn(4); n > 0; n-- {
					o.after(0)
				}
			case 3: // cancel a random event (live or stale)
				o.cancel(rng, false)
			case 4: // step both
				o.step()
			}
		}
		o.drain()
	}
}

// TestEquivalenceWithReferenceHeapShapes runs the oracle over the queue
// shapes the packed-key heap must get right beyond small random mixes:
// deep heaps, time ties resolved inside the heap, compaction, and times
// at the top of the range. Partial last groups are pinned separately by
// TestHeapPopPartialGroups.
func TestEquivalenceWithReferenceHeapShapes(t *testing.T) {
	shapes := []struct {
		name string
		base Time // first scheduling instant
		pre  int  // events queued before the mixed phase
		ops  int
		// delay draws one scheduling delay.
		delay func(rng *rand.Rand) Duration
		// relative weights of schedule, same-instant burst, cancel, step
		weights [4]int
		// pendingOnly aims every cancel at a pending event
		pendingOnly bool
		check       func(t *testing.T, o *oracle)
	}{
		{
			name: "deep", pre: 1500, ops: 6000,
			delay:   func(rng *rand.Rand) Duration { return Duration(1 + rng.Intn(100000)) },
			weights: [4]int{4, 1, 1, 4},
			check: func(t *testing.T, o *oracle) {
				if o.maxHeap < 1024 {
					t.Errorf("heap peaked at %d entries, want >= 1024", o.maxHeap)
				}
			},
		},
		{
			// Delays from a tiny set make events scheduled at different
			// instants collide on the same future time. With no
			// same-instant bursts nothing enters the ring, so every tie
			// is broken by seq inside the heap.
			name: "heap-ties", pre: 200, ops: 4000,
			delay:   func(rng *rand.Rand) Duration { return Duration(4 * (1 + rng.Intn(3))) },
			weights: [4]int{4, 0, 1, 4},
			check: func(t *testing.T, o *oracle) {
				if o.ties < 1000 {
					t.Errorf("only %d same-time pops, want >= 1000", o.ties)
				}
			},
		},
		{
			// A heap of about 80 entries whose cancels all hit pending
			// events crosses the 64-entry compaction threshold again and
			// again.
			name: "compaction", pre: 80, ops: 3000,
			delay:   func(rng *rand.Rand) Duration { return Duration(1 + rng.Intn(500)) },
			weights: [4]int{3, 1, 3, 1}, pendingOnly: true,
			check: func(t *testing.T, o *oracle) {
				if o.compactions < 3 {
					t.Errorf("heap compacted %d times, want >= 3", o.compactions)
				}
			},
		},
		{
			// The clock starts just below MaxInt64 and delays saturate at
			// it, so ties pile up at the last representable instant.
			name: "near-max-time", base: 1<<63 - 1 - 500, pre: 300, ops: 4000,
			delay:   func(rng *rand.Rand) Duration { return Duration(1 + rng.Intn(400)) },
			weights: [4]int{4, 1, 1, 3},
			check: func(t *testing.T, o *oracle) {
				if o.now != 1<<63-1 {
					t.Errorf("clock ended at %d, want MaxInt64", o.now)
				}
			},
		},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				rng := rand.New(rand.NewSource(int64(7000 + trial)))
				o := newOracle(t, fmt.Sprintf("%s trial %d", sh.name, trial))
				if sh.base > 0 {
					o.at(sh.base)
					o.step()
				}
				for i := 0; i < sh.pre; i++ {
					o.after(sh.delay(rng))
				}
				w := sh.weights
				for op := 0; op < sh.ops; op++ {
					switch r := rng.Intn(w[0] + w[1] + w[2] + w[3]); {
					case r < w[0]:
						o.after(sh.delay(rng))
					case r < w[0]+w[1]:
						for n := 1 + rng.Intn(3); n > 0; n-- {
							o.after(0)
						}
					case r < w[0]+w[1]+w[2]:
						o.cancel(rng, sh.pendingOnly)
					default:
						o.step()
					}
				}
				o.drain()
				sh.check(t, o)
			}
		})
	}
}

// TestHeapPopPartialGroups pins bottom-up pop across every fill of the
// last child group. For each heap size it builds a valid heap whose
// smallest items run from the root to the parent of the last entry, so
// the hole left by popping the root descends exactly to that parent and
// must pick among its 1–4 children; then it drains the heap and requires
// sorted output. Keys carry seq values at the top of the packed range
// and times sit near MaxInt64, with pairs of items sharing a time, so
// the 128-bit compare sees both its high words differ and tie.
func TestHeapPopPartialGroups(t *testing.T) {
	depth := func(i int) int {
		d := 0
		for ; i > 0; i = (i - 1) >> 2 {
			d++
		}
		return d
	}
	groups := map[int]bool{}
	for size := 3; size <= 400; size++ {
		n := size - 1 // heap size once the last entry is lifted out
		parent := (n - 2) >> 2
		groups[n-(parent<<2+1)] = true
		onPath := map[int]bool{}
		for i := parent; ; i = (i - 1) >> 2 {
			onPath[i] = true
			if i == 0 {
				break
			}
		}
		// Ordering by (depth, off-path, index) is a valid heap — every
		// child is one level deeper than its parent — in which each
		// on-path node is the smallest of its siblings.
		rank := make([]int, size)
		for i := range rank {
			rank[i] = i
		}
		sort.Slice(rank, func(a, b int) bool {
			ia, ib := rank[a], rank[b]
			if da, db := depth(ia), depth(ib); da != db {
				return da < db
			}
			if onPath[ia] != onPath[ib] {
				return onPath[ia]
			}
			return ia < ib
		})
		e := NewEngine()
		e.heap = make([]heapItem, size)
		want := make([]heapItem, size)
		for r, i := range rank {
			it := heapItem{
				at:  1<<63 - 1 - Time(size) + Time(r/2),
				key: (maxSeq-uint64(size)+uint64(r))<<slotBits | uint64(i),
			}
			e.heap[i] = it
			want[r] = it
		}
		for k := range want {
			if got := e.heap[0]; got != want[k] {
				t.Fatalf("size %d: pop %d = %+v, want %+v", size, k, got, want[k])
			}
			e.heapPopTop()
		}
	}
	for k := 1; k <= 4; k++ {
		if !groups[k] {
			t.Errorf("no heap size left a last group of %d children", k)
		}
	}
}

// TestLessBitMatchesTupleOrder checks the branch-free compare and select
// against the plain (at, key) tuple order on values drawn from the edges
// of both words, where a borrow chain goes wrong first.
func TestLessBitMatchesTupleOrder(t *testing.T) {
	ats := []Time{0, 1, 2, 1<<31 - 1, 1 << 32, 1<<62 + 3, 1<<63 - 2, 1<<63 - 1}
	keys := []uint64{0, 1, slotMask, slotMask + 1, 1 << 63, maxSeq << slotBits, maxSeq<<slotBits | slotMask}
	var items []heapItem
	for _, at := range ats {
		for _, k := range keys {
			items = append(items, heapItem{at, k})
		}
	}
	for _, a := range items {
		for _, b := range items {
			aFirst := a.at < b.at || (a.at == b.at && a.key < b.key)
			if got := lessBit(a, b) == 1; got != aFirst {
				t.Fatalf("lessBit(%+v, %+v) = %v, want %v", a, b, got, aFirst)
			}
			bFirst := b.at < a.at || (b.at == a.at && b.key < a.key)
			wantM, wantBit := a, uint64(0)
			if bFirst {
				wantM, wantBit = b, 1
			}
			if m, bit := pick(a, b); m != wantM || bit != wantBit {
				t.Fatalf("pick(%+v, %+v) = %+v, %d; want %+v, %d", a, b, m, bit, wantM, wantBit)
			}
		}
	}
}
