package cluster

import (
	"math/rand"
	"testing"
)

// scanNode is the reference aggregate: the index-order scan the tree
// replaces, computed from scratch over [lo, hi).
func scanNode(members []*member, lo, hi int) treeNode {
	n := emptyNode
	for i := lo; i < hi && i < len(members); i++ {
		if i < 0 {
			continue
		}
		n = combine(n, leafFor(members[i], i))
	}
	return n
}

// scanFirst is the reference for firstSpare/firstActSpare: the lowest
// index in [lo, hi) whose leaf satisfies pred, or -1.
func scanFirst(members []*member, lo, hi int, pred func(treeNode) bool) int {
	for i := lo; i < hi && i < len(members); i++ {
		if i < 0 {
			continue
		}
		if n := leafFor(members[i], i); n.eligCnt == 1 && pred(n) {
			return i
		}
	}
	return -1
}

// TestTreeMatchesScan pins the segment tree to its definition: after
// every random mutation, every query over every range must equal the
// index-order scan it replaces — including the lowest-index tie-breaking
// of the min-load and first-fit answers.
func TestTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		members := make([]*member, n)
		for i := range members {
			members[i] = &member{idx: i, cap: 1 + rng.Intn(4), cores: 2}
		}
		var tr memberTree
		tr.build(members)
		for step := 0; step < 400; step++ {
			m := members[rng.Intn(n)]
			switch rng.Intn(6) {
			case 0:
				m.load = rng.Intn(6)
			case 1:
				m.cap = 1 + rng.Intn(4)
			case 2:
				m.state = memberState(rng.Intn(3))
			case 3:
				m.down = rng.Intn(2) == 0
			case 4:
				m.cut = rng.Intn(2) == 0
			case 5:
				m.load = 0
			}
			tr.update(m.idx)

			lo, hi := rng.Intn(n+1), rng.Intn(n+2)
			if got, want := tr.query(lo, hi), scanNode(members, lo, hi); got != want {
				t.Fatalf("n=%d step=%d query(%d,%d) = %+v, scan = %+v", n, step, lo, hi, got, want)
			}
			if got, want := tr.root(), scanNode(members, 0, n); got != want {
				t.Fatalf("n=%d step=%d root = %+v, scan = %+v", n, step, got, want)
			}
			below := scanNode(members, 0, lo)
			if cnt, headroom := tr.prefixHeadroom(lo); cnt != below.eligCnt || headroom != below.headroom {
				t.Fatalf("n=%d step=%d prefixHeadroom(%d) = (%d, %d), scan = (%d, %d)",
					n, step, lo, cnt, headroom, below.eligCnt, below.headroom)
			}
			if got, want := tr.frontier(), tr.query(1, n).maxEligIdx; got != want {
				t.Fatalf("n=%d step=%d frontier = %d, query(1,%d).maxEligIdx = %d", n, step, got, n, want)
			}
			spare := func(nd treeNode) bool { return nd.hasSpare }
			actSpare := func(nd treeNode) bool { return nd.hasActSpare }
			if got, want := tr.firstSpare(lo, hi), scanFirst(members, lo, hi, spare); got != want {
				t.Fatalf("n=%d step=%d firstSpare(%d,%d) = %d, scan = %d", n, step, lo, hi, got, want)
			}
			if got, want := tr.firstActSpare(lo, hi), scanFirst(members, lo, hi, actSpare); got != want {
				t.Fatalf("n=%d step=%d firstActSpare(%d,%d) = %d, scan = %d", n, step, lo, hi, got, want)
			}
		}
	}
}
