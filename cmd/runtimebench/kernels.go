package main

import (
	"sort"

	fl "futurelocality"
)

func fibSeq(n int) int {
	if n < 2 {
		return n
	}
	a, b := 0, 1
	for i := 2; i <= n; i++ {
		a, b = b, a+b
	}
	return b
}

func fib(rt *fl.Runtime, w *fl.W, n, cutoff int) int {
	if n < cutoff {
		return fibSeq(n)
	}
	f := fl.Spawn(rt, w, func(w *fl.W) int { return fib(rt, w, n-1, cutoff) })
	y := fib(rt, w, n-2, cutoff)
	return f.Touch(w) + y
}

func pipeline(rt *fl.Runtime, w *fl.W, items int) int {
	st := fl.Produce(rt, w, items, func(_ *fl.W, i int) int { return i*31 + 7 })
	acc := 0
	for i := 0; i < items; i++ {
		acc ^= st.Get(w, i)
	}
	return acc
}

// treeNode is a heap-allocated binary tree node: the tree-sum workload is
// the pointer-chasing traversal whose cache behavior the paper's model is
// about — every task touches scattered heap lines, so scheduler-induced
// deviations show up as real misses, not just counter noise.
type treeNode struct {
	val         int
	left, right *treeNode
}

// buildTree builds a balanced tree of the given depth with distinct values.
func buildTree(depth int, next *int) *treeNode {
	if depth == 0 {
		return nil
	}
	n := &treeNode{val: *next}
	*next++
	n.left = buildTree(depth-1, next)
	n.right = buildTree(depth-1, next)
	return n
}

func treeSumSeq(n *treeNode) int {
	if n == nil {
		return 0
	}
	return n.val + treeSumSeq(n.left) + treeSumSeq(n.right)
}

// treeSum forks per subtree down to the cutoff depth, spawning the left
// subtree as a future and recursing into the right — the Figure-style
// future-parallel traversal.
func treeSum(rt *fl.Runtime, w *fl.W, n *treeNode, depth, cutoff int) int {
	if n == nil {
		return 0
	}
	if depth <= cutoff {
		return treeSumSeq(n)
	}
	f := fl.Spawn(rt, w, func(w *fl.W) int { return treeSum(rt, w, n.left, depth-1, cutoff) })
	r := treeSum(rt, w, n.right, depth-1, cutoff)
	return n.val + f.Touch(w) + r
}

// xorshift64 is the benchmark's seeded generator (input synthesis and
// per-node grain work).
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// quicksort is the runtime analogue of the internal/graphs quicksort
// family: a future-parallel randomized quicksort whose irregular,
// data-dependent fork tree is exactly the shape that separates steal
// policies (unbalanced partitions leave deep one-sided backlogs for
// thieves). Each call sorts a fresh copy of the pristine input; the
// returned checksum is position-weighted so any misplacement changes it.
func quicksort(rt *fl.Runtime, w *fl.W, dst, src []int, cutoff int) int {
	copy(dst, src)
	qsort(rt, w, dst, cutoff)
	sum := 0
	for i, v := range dst {
		sum += (i%64 + 1) * v
	}
	return sum
}

// qsort forks the left partition as a future and recurses into the right —
// the same fork orientation as graphs.Quicksort. The len < 3 floor keeps
// partition's median-of-three indexing in range whatever -qsortcut says.
func qsort(rt *fl.Runtime, w *fl.W, a []int, cutoff int) {
	if len(a) <= cutoff || len(a) < 3 {
		sort.Ints(a)
		return
	}
	p := partition(a)
	left, right := a[:p], a[p+1:]
	f := fl.Spawn(rt, w, func(w *fl.W) struct{} { qsort(rt, w, left, cutoff); return struct{}{} })
	qsort(rt, w, right, cutoff)
	f.Touch(w)
}

// partition is a median-of-three Hoare-style partition returning the final
// pivot index.
func partition(a []int) int {
	n := len(a)
	m := n / 2
	if a[m] < a[0] {
		a[m], a[0] = a[0], a[m]
	}
	if a[n-1] < a[0] {
		a[n-1], a[0] = a[0], a[n-1]
	}
	if a[n-1] < a[m] {
		a[n-1], a[m] = a[m], a[n-1]
	}
	a[m], a[n-2] = a[n-2], a[m]
	pivot := a[n-2]
	i := 0
	for j := 1; j < n-2; j++ {
		if a[j] < pivot {
			i++
			if i != j {
				a[i], a[j] = a[j], a[i]
			}
		}
	}
	a[i+1], a[n-2] = a[n-2], a[i+1]
	return i + 1
}

// randstruct is the runtime analogue of graphs.RandomStructured: a seeded
// random structured single-touch computation. Every task burns a grain of
// arithmetic, spawns a seed-determined number of children, hands one of
// its still-untouched futures to a child (the Figure 5(b) pass-a-future
// pattern), and touches everything it still holds before returning. The
// fork tree and the checksum are pure functions of the seed, so the result
// is schedule-independent while the touch pattern is irregular enough to
// exercise every steal policy.
func randstruct(rt *fl.Runtime, w *fl.W, seed uint64, depth int) int {
	rng := seed
	acc := 0
	// Grain work: enough arithmetic that a task is not pure scheduler
	// overhead (fib already measures that).
	for i := 0; i < 256; i++ {
		rng = xorshift64(rng)
		acc += int(rng & 0xff)
	}
	if depth == 0 {
		return acc
	}
	kids := 1 + int(rng%3)
	var open []*fl.Future[int]
	for i := 0; i < kids; i++ {
		rng = xorshift64(rng)
		childSeed := rng
		rng = xorshift64(rng)
		var passed *fl.Future[int]
		if len(open) > 0 && rng&1 == 0 {
			// Hand our oldest untouched future to the child: its touch moves
			// to a descendant, which keeps the computation structured (the
			// fork still precedes the touch on every path) but non-fork-join.
			passed = open[0]
			open = open[1:]
		}
		d := depth - 1
		f := fl.Spawn(rt, w, func(w *fl.W) int {
			v := randstruct(rt, w, childSeed, d)
			if passed != nil {
				v += passed.Touch(w)
			}
			return v
		})
		open = append(open, f)
	}
	for _, f := range open {
		acc += f.Touch(w)
	}
	return acc
}

// matmul multiplies dim×dim matrices row-parallel via ForEach and returns a
// checksum. The row-major inner loops are the cache-friendly dense kernel;
// what the benchmark observes is how much scheduler overhead rides on top.
func matmul(rt *fl.Runtime, w *fl.W, a, b, c []float64, dim int) int {
	fl.ForEachPar(rt, w, dim, 8, func(w *fl.W, i int) {
		row := c[i*dim : (i+1)*dim]
		for j := range row {
			row[j] = 0
		}
		for k := 0; k < dim; k++ {
			aik := a[i*dim+k]
			brow := b[k*dim : (k+1)*dim]
			for j := range row {
				row[j] += aik * brow[j]
			}
		}
	})
	sum := 0.0
	for _, v := range c {
		sum += v
	}
	return int(sum)
}
