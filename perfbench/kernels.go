package main

import (
	"sort"
	"sync/atomic"
	"time"
	"unsafe"

	fl "futurelocality"
)

// The forkjoin kernels follow cmd/runtimebench (a main package, so they are
// copied rather than imported). Each has a plain-Go twin with no runtime: the
// twins supply the checksums every runtime round is checked against and the
// single-threaded baseline behind fj_speedup.

// spawnProbe samples the duration of Spawn and Touch calls made by the
// kernels during a traced round. Each worker writes only its own slot (a
// worker's W is owned by one goroutine), so no slot needs a lock.
type spawnProbe struct {
	every uint64 // time one call in every this many, per worker
	slots []probeSlot
}

type probeSlot struct {
	spawns, touches uint64
	spawnNs         []float64
	touchNs         []float64
	_               [64]byte // keep neighbouring workers' counters off one line
}

// probe is non-nil only while traced forkjoin rounds run. It is published
// before fl.Run injects a round and cleared after the round returns, and
// fl.Run's hand-off orders both against the workers' loads.
var probe atomic.Pointer[spawnProbe]

func newSpawnProbe(workers int, every uint64) *spawnProbe {
	p := &spawnProbe{every: every, slots: make([]probeSlot, workers)}
	for i := range p.slots {
		p.slots[i].spawnNs = make([]float64, 0, 1<<16)
		p.slots[i].touchNs = make([]float64, 0, 1<<16)
	}
	return p
}

func (p *spawnProbe) samples() (spawn, touch []float64) {
	if p == nil {
		return nil, nil
	}
	for i := range p.slots {
		spawn = append(spawn, p.slots[i].spawnNs...)
		touch = append(touch, p.slots[i].touchNs...)
	}
	return spawn, touch
}

func spawn[T any](rt *fl.Runtime, w *fl.W, fn func(*fl.W) T) *fl.Future[T] {
	p := probe.Load()
	if p == nil {
		return fl.Spawn(rt, w, fn)
	}
	s := &p.slots[w.ID()]
	s.spawns++
	if s.spawns%p.every != 0 {
		return fl.Spawn(rt, w, fn)
	}
	t0 := time.Now()
	f := fl.Spawn(rt, w, fn)
	s.spawnNs = append(s.spawnNs, float64(time.Since(t0)))
	return f
}

func touch[T any](w *fl.W, f *fl.Future[T]) T {
	p := probe.Load()
	if p == nil {
		return f.Touch(w)
	}
	s := &p.slots[w.ID()]
	s.touches++
	if s.touches%p.every != 0 {
		return f.Touch(w)
	}
	t0 := time.Now()
	v := f.Touch(w)
	s.touchNs = append(s.touchNs, float64(time.Since(t0)))
	return v
}

func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// fibLeaf is the iterative leaf below the cutoff: fib's leaves are trivial
// on purpose, so the runtime version measures spawn+touch overhead.
func fibLeaf(n int) int {
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
		return fibLeaf(n)
	}
	f := spawn(rt, w, func(w *fl.W) int { return fib(rt, w, n-1, cutoff) })
	y := fib(rt, w, n-2, cutoff)
	return touch(w, f) + y
}

func fibPlain(n, cutoff int) int {
	if n < cutoff {
		return fibLeaf(n)
	}
	return fibPlain(n-1, cutoff) + fibPlain(n-2, cutoff)
}

// treeNode is a heap-allocated binary tree node: the tree sum chases
// pointers through scattered heap lines, the paper's locality case.
type treeNode struct {
	val         int
	left, right *treeNode
}

const treeNodeBytes = int(unsafe.Sizeof(treeNode{}))

// buildTree builds a balanced tree of the given depth whose values come
// from the seeded generator.
func buildTree(depth int, rng *uint64) *treeNode {
	if depth == 0 {
		return nil
	}
	*rng = xorshift64(*rng)
	n := &treeNode{val: int(*rng % 1024)}
	n.left = buildTree(depth-1, rng)
	n.right = buildTree(depth-1, rng)
	return n
}

func treeSumPlain(n *treeNode) int {
	if n == nil {
		return 0
	}
	return n.val + treeSumPlain(n.left) + treeSumPlain(n.right)
}

// treeSum spawns the left subtree as a future and recurses into the right,
// down to the cutoff depth.
func treeSum(rt *fl.Runtime, w *fl.W, n *treeNode, depth, cutoff int) int {
	if n == nil {
		return 0
	}
	if depth <= cutoff {
		return treeSumPlain(n)
	}
	f := spawn(rt, w, func(w *fl.W) int { return treeSum(rt, w, n.left, depth-1, cutoff) })
	r := treeSum(rt, w, n.right, depth-1, cutoff)
	return n.val + touch(w, f) + r
}

// quicksort sorts a fresh copy of src into dst and returns a
// position-weighted checksum, so any misplacement changes it.
func quicksort(rt *fl.Runtime, w *fl.W, dst, src []int, cutoff int) int {
	copy(dst, src)
	qsort(rt, w, dst, cutoff)
	return positionSum(dst)
}

func quicksortPlain(dst, src []int, cutoff int) int {
	copy(dst, src)
	qsortPlain(dst, cutoff)
	return positionSum(dst)
}

func positionSum(a []int) int {
	sum := 0
	for i, v := range a {
		sum += (i%64 + 1) * v
	}
	return sum
}

// qsort forks the left partition as a future and recurses into the right.
func qsort(rt *fl.Runtime, w *fl.W, a []int, cutoff int) {
	if len(a) <= cutoff || len(a) < 3 {
		sort.Ints(a)
		return
	}
	p := partition(a)
	left, right := a[:p], a[p+1:]
	f := spawn(rt, w, func(w *fl.W) struct{} { qsort(rt, w, left, cutoff); return struct{}{} })
	qsort(rt, w, right, cutoff)
	touch(w, f)
}

func qsortPlain(a []int, cutoff int) {
	if len(a) <= cutoff || len(a) < 3 {
		sort.Ints(a)
		return
	}
	p := partition(a)
	qsortPlain(a[:p], cutoff)
	qsortPlain(a[p+1:], cutoff)
}

// partition is a median-of-three partition returning the pivot's index.
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

// rsGrain is the arithmetic each randstruct task burns, so a task is not
// pure scheduler overhead (fib already measures that).
func rsGrain(rng uint64) (uint64, int) {
	acc := 0
	for i := 0; i < 256; i++ {
		rng = xorshift64(rng)
		acc += int(rng & 0xff)
	}
	return rng, acc
}

// randstruct is a seeded random structured single-touch computation: each
// task spawns 1-3 children, may hand its oldest untouched future to a child
// (the pass-a-future pattern that makes it non-fork-join), and touches
// everything it still holds. Shape and checksum depend only on the seed.
func randstruct(rt *fl.Runtime, w *fl.W, seed uint64, depth int) int {
	rng, acc := rsGrain(seed)
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
			passed = open[0]
			open = open[1:]
		}
		d := depth - 1
		f := spawn(rt, w, func(w *fl.W) int {
			v := randstruct(rt, w, childSeed, d)
			if passed != nil {
				v += touch(w, passed)
			}
			return v
		})
		open = append(open, f)
	}
	for _, f := range open {
		acc += touch(w, f)
	}
	return acc
}

// grainTable[k][b] is the state rsGrain leaves from the seed b<<(8k).
// xorshift64 is linear over GF(2), so rsGrain's state for any seed is the
// XOR of one entry per seed byte (grainState): randstructTasks, which needs
// only the shape, takes 8 lookups per task instead of 256 generator steps,
// and randstructSeed's search stays a small, steady part of set-up.
var grainTable = func() (t [8][256]uint64) {
	for k := range t {
		for b := range t[k] {
			t[k][b], _ = rsGrain(uint64(b) << (8 * k))
		}
	}
	return t
}()

func grainState(seed uint64) (s uint64) {
	for k := range grainTable {
		s ^= grainTable[k][byte(seed>>(8*k))]
	}
	return s
}

// randstructTasks counts the tasks randstruct(seed, depth) spawns,
// including the root.
func randstructTasks(seed uint64, depth int) int {
	rng := grainState(seed)
	if depth == 0 {
		return 1
	}
	n := 1
	kids := 1 + int(rng%3)
	for i := 0; i < kids; i++ {
		rng = xorshift64(rng)
		n += randstructTasks(rng, depth-1)
		rng = xorshift64(rng)
	}
	return n
}

// randstructSeed returns the first seed at or after rng (stepping through
// the generator) whose computation has within 1% of the mean task count
// 2^(depth+1)-1, so the work of a run does not swing with its seed: the
// profile cycle's classification grows with the square of the count.
func randstructSeed(rng uint64, depth int) uint64 {
	target := float64(int(1)<<(depth+1) - 1)
	for {
		rng = xorshift64(rng)
		if n := float64(randstructTasks(rng, depth)); n >= 0.99*target && n <= 1.01*target {
			return rng
		}
	}
}

// randstructPlain evaluates the same computation eagerly: every future's
// value is known when it is spawned, so passing a future passes its value.
func randstructPlain(seed uint64, depth int) int {
	rng, acc := rsGrain(seed)
	if depth == 0 {
		return acc
	}
	kids := 1 + int(rng%3)
	var open []int
	for i := 0; i < kids; i++ {
		rng = xorshift64(rng)
		childSeed := rng
		rng = xorshift64(rng)
		passed := 0
		if len(open) > 0 && rng&1 == 0 {
			passed = open[0]
			open = open[1:]
		}
		open = append(open, randstructPlain(childSeed, depth-1)+passed)
	}
	for _, v := range open {
		acc += v
	}
	return acc
}

// pipeline is the serve mix's stream job: one producer, one consumer.
func pipeline(rt *fl.Runtime, w *fl.W, items int) int {
	st := fl.Produce(rt, w, items, func(_ *fl.W, i int) int { return i*31 + 7 })
	acc := 0
	for i := 0; i < items; i++ {
		acc ^= st.Get(w, i)
	}
	return acc
}

func pipelinePlain(items int) int {
	acc := 0
	for i := 0; i < items; i++ {
		acc ^= i*31 + 7
	}
	return acc
}
