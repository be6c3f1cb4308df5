package cluster

// Incremental policy data structures (DESIGN.md §9): a segment tree over
// the members plus per-rack and fleet-level occupancy counters, so the
// routing policies and the drain controller stop rescanning the fleet on
// every arrival.
//
// The tree is purely an accelerator: every query is defined as — and
// tested against (TestTreeMatchesScan) — the index-order scan it
// replaces, with identical tie-breaking, so goldens and parity suites
// hold byte-for-byte. Leaves mirror the members in index order; internal
// nodes aggregate. A member's leaf is recomputed by Fleet.touch whenever
// any input of a routing decision changes (load, cap, drain state,
// crash/partition flags) — O(log n) per update — and each policy
// decision is then O(log n) (or O(racks) for rack selection) instead of
// O(n), with the drain surplus scan dropping from O(n²) to O(log n).
//
// Aggregates per node, all over *eligible* members only (active in the
// drain controller's sense and reachable — see member.eligible):
//
//	eligCnt     — how many
//	minLoad/minIdx — least-loaded, lowest index on ties (left-first)
//	hasSpare    — any with load < cap
//	hasActSpare — any with 0 < load < cap
//	headroom    — Σ max(cap−load, 0)
//	loadSum     — Σ load
//	maxEligIdx  — highest index
type treeNode struct {
	eligCnt     int
	minLoad     int
	minIdx      int // -1 when eligCnt == 0
	maxEligIdx  int // -1 when eligCnt == 0
	hasSpare    bool
	hasActSpare bool
	headroom    int64
	loadSum     int64
}

// emptyNode is the neutral element of combine.
var emptyNode = treeNode{minIdx: -1, maxEligIdx: -1}

// combine merges the aggregates of a left and right sibling. Left wins
// min-load ties, which is what preserves the scans' lowest-index
// tie-breaking exactly.
//
//apcvet:noalloc
func combine(a, b treeNode) treeNode {
	n := treeNode{
		eligCnt:     a.eligCnt + b.eligCnt,
		hasSpare:    a.hasSpare || b.hasSpare,
		hasActSpare: a.hasActSpare || b.hasActSpare,
		headroom:    a.headroom + b.headroom,
		loadSum:     a.loadSum + b.loadSum,
	}
	switch {
	case a.eligCnt == 0:
		n.minLoad, n.minIdx = b.minLoad, b.minIdx
	case b.eligCnt == 0 || a.minLoad <= b.minLoad:
		n.minLoad, n.minIdx = a.minLoad, a.minIdx
	default:
		n.minLoad, n.minIdx = b.minLoad, b.minIdx
	}
	if b.maxEligIdx >= 0 {
		n.maxEligIdx = b.maxEligIdx
	} else {
		n.maxEligIdx = a.maxEligIdx
	}
	return n
}

// memberTree is the segment tree. nodes[1] is the root; member i's leaf
// is nodes[base+i]; leaves beyond the member count stay neutral.
type memberTree struct {
	members []*member
	base    int
	nodes   []treeNode
}

// build (re)initializes the tree over the given members.
func (t *memberTree) build(members []*member) {
	t.members = members
	t.base = 1
	for t.base < len(members) {
		t.base <<= 1
	}
	need := 2 * t.base
	if cap(t.nodes) < need {
		t.nodes = make([]treeNode, need)
	} else {
		t.nodes = t.nodes[:need]
	}
	for i := range t.nodes {
		t.nodes[i] = emptyNode
	}
	for i, m := range members {
		t.nodes[t.base+i] = leafFor(m, i)
	}
	for i := t.base - 1; i >= 1; i-- {
		t.nodes[i] = combine(t.nodes[2*i], t.nodes[2*i+1])
	}
}

// leafFor derives member idx's leaf from its current routing state.
//
//apcvet:noalloc
func leafFor(m *member, idx int) treeNode {
	if !m.eligible() {
		return emptyNode
	}
	ld := m.load
	h := int64(m.cap - ld)
	if h < 0 {
		h = 0
	}
	return treeNode{
		eligCnt:     1,
		minLoad:     ld,
		minIdx:      idx,
		maxEligIdx:  idx,
		hasSpare:    ld < m.cap,
		hasActSpare: ld > 0 && ld < m.cap,
		headroom:    h,
		loadSum:     int64(ld),
	}
}

// update recomputes member idx's leaf and its root path. The loop is
// combine unrolled onto pointers — the tree is written on every load
// change (twice per request), so the root path must not copy 56-byte
// nodes through a call boundary the way query's combine does.
//
//apcvet:noalloc
func (t *memberTree) update(idx int) {
	i := t.base + idx
	t.nodes[i] = leafFor(t.members[idx], idx)
	for i >>= 1; i >= 1; i >>= 1 {
		l, r := &t.nodes[2*i], &t.nodes[2*i+1]
		n := &t.nodes[i]
		n.eligCnt = l.eligCnt + r.eligCnt
		n.hasSpare = l.hasSpare || r.hasSpare
		n.hasActSpare = l.hasActSpare || r.hasActSpare
		n.headroom = l.headroom + r.headroom
		n.loadSum = l.loadSum + r.loadSum
		switch {
		case l.eligCnt == 0:
			n.minLoad, n.minIdx = r.minLoad, r.minIdx
		case r.eligCnt == 0 || l.minLoad <= r.minLoad:
			n.minLoad, n.minIdx = l.minLoad, l.minIdx
		default:
			n.minLoad, n.minIdx = r.minLoad, r.minIdx
		}
		if r.maxEligIdx >= 0 {
			n.maxEligIdx = r.maxEligIdx
		} else {
			n.maxEligIdx = l.maxEligIdx
		}
	}
}

// root returns the whole-fleet aggregate.
//
//apcvet:noalloc
func (t *memberTree) root() treeNode { return t.nodes[1] }

// query returns the combined aggregate over the index range [lo, hi).
//
//apcvet:noalloc
func (t *memberTree) query(lo, hi int) treeNode {
	if lo < 0 {
		lo = 0
	}
	if hi > t.base {
		hi = t.base
	}
	if lo >= hi {
		return emptyNode
	}
	left, right := emptyNode, emptyNode
	for lo, hi = lo+t.base, hi+t.base; lo < hi; lo, hi = lo>>1, hi>>1 {
		if lo&1 == 1 {
			left = combine(left, t.nodes[lo])
			lo++
		}
		if hi&1 == 1 {
			hi--
			right = combine(t.nodes[hi], right)
		}
	}
	return combine(left, right)
}

// frontier returns the drain candidate: the highest eligible index
// above 0, or -1 when no member above index 0 is eligible. It equals
// query(1, n).maxEligIdx but reads only the root, because the highest
// eligible index overall is in [1, n) exactly when it is at least 1.
//
//apcvet:noalloc
func (t *memberTree) frontier() int {
	if i := t.nodes[1].maxEligIdx; i >= 1 {
		return i
	}
	return -1
}

// prefixHeadroom returns the eligible count and the cap headroom over
// [0, hi), the two fields of query(0, hi) the drain decisions read.
// The left siblings on the root path of leaf hi partition [0, hi), so
// the walk sums one node per level and never combines whole nodes.
//
//apcvet:noalloc
func (t *memberTree) prefixHeadroom(hi int) (eligCnt int, headroom int64) {
	if hi >= t.base {
		return t.nodes[1].eligCnt, t.nodes[1].headroom
	}
	for i := t.base + hi; i > 1; i >>= 1 {
		if i&1 == 1 {
			n := &t.nodes[i-1]
			eligCnt += n.eligCnt
			headroom += n.headroom
		}
	}
	return eligCnt, headroom
}

// firstSpare returns the lowest index in [lo, hi) whose member is
// eligible with load < cap, or -1 — the tree form of the power_aware
// first-fit scan.
//
//apcvet:noalloc
func (t *memberTree) firstSpare(lo, hi int) int {
	return t.first(lo, hi, func(n treeNode) bool { return n.hasSpare })
}

// firstActSpare returns the lowest index in [lo, hi) whose member is
// eligible with 0 < load < cap, or -1 — the already-active preference of
// the rack packer.
//
//apcvet:noalloc
func (t *memberTree) firstActSpare(lo, hi int) int {
	return t.first(lo, hi, func(n treeNode) bool { return n.hasActSpare })
}

// first descends left-first for the lowest index in [lo, hi) whose leaf
// satisfies pred, pruning subtrees whose aggregate does not.
//
//apcvet:noalloc
func (t *memberTree) first(lo, hi int, pred func(treeNode) bool) int {
	if hi > t.base {
		hi = t.base
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return -1
	}
	return t.firstIn(1, 0, t.base, lo, hi, pred)
}

//apcvet:noalloc
func (t *memberTree) firstIn(node, nodeLo, nodeHi, lo, hi int, pred func(treeNode) bool) int {
	if nodeHi <= lo || hi <= nodeLo || !pred(t.nodes[node]) {
		return -1
	}
	if node >= t.base {
		return nodeLo
	}
	mid := (nodeLo + nodeHi) / 2
	if i := t.firstIn(2*node, nodeLo, mid, lo, hi, pred); i >= 0 {
		return i
	}
	return t.firstIn(2*node+1, mid, nodeHi, lo, hi, pred)
}

// rackCounters is the per-rack occupancy summary the rack policies
// select racks from in O(1) per rack, maintained by Fleet.touch.
type rackCounters struct {
	size     int // members in the rack
	elig     int // eligible members
	active   int // eligible with load > 0
	spare    int // eligible with load < cap
	actSpare int // eligible with 0 < load < cap
}

// memberAgg caches one member's last-applied contribution to the rack
// and fleet counters, so touch can diff instead of rescanning.
type memberAgg struct {
	elig     bool
	active   bool
	spare    bool
	actSpare bool
	alive    bool
	load     int
	capacity int // max(cap, cores): the shed threshold's capacity
}

// computeAgg derives the member's current contribution.
//
//apcvet:noalloc
func (m *member) computeAgg() memberAgg {
	a := memberAgg{alive: m.alive(), load: m.load, capacity: m.cap}
	if m.cores > a.capacity {
		a.capacity = m.cores
	}
	if m.eligible() {
		a.elig = true
		a.active = m.load > 0
		a.spare = m.load < m.cap
		a.actSpare = m.load > 0 && m.load < m.cap
	}
	return a
}

// touch folds a member's state change (load, cap, drain state, fault
// flags) into the tree, its rack's counters, and the fleet-wide alive
// counters. It must run after every such change and before the next
// policy decision.
//
//apcvet:noalloc
func (f *Fleet) touch(m *member) {
	old := m.agg
	neu := m.computeAgg()
	m.agg = neu

	rc := &f.rackCnt[m.rack]
	rc.elig += b2i(neu.elig) - b2i(old.elig)
	rc.active += b2i(neu.active) - b2i(old.active)
	rc.spare += b2i(neu.spare) - b2i(old.spare)
	rc.actSpare += b2i(neu.actSpare) - b2i(old.actSpare)

	if old.alive {
		f.aliveCnt--
		f.aliveLoad -= old.load
		f.aliveCap -= old.capacity
	}
	if neu.alive {
		f.aliveCnt++
		f.aliveLoad += neu.load
		f.aliveCap += neu.capacity
	}

	f.tree.update(m.idx)
}

// initTree builds the incremental structures after the members exist;
// every member starts eligible, empty and alive.
func (f *Fleet) initTree() {
	f.tree.build(f.members)
	if cap(f.rackCnt) < f.topo.Racks {
		f.rackCnt = make([]rackCounters, f.topo.Racks)
	} else {
		f.rackCnt = f.rackCnt[:f.topo.Racks]
		for i := range f.rackCnt {
			f.rackCnt[i] = rackCounters{}
		}
	}
	f.aliveCnt, f.aliveLoad, f.aliveCap = 0, 0, 0
	for _, m := range f.members {
		f.rackCnt[m.rack].size++
		m.agg = memberAgg{}
		f.touch(m)
	}
}

//apcvet:noalloc
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
