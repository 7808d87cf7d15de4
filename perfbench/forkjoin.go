package main

import (
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	fl "futurelocality"
	"futurelocality/internal/deque"
)

// forkjoin sizes. The treesum tree (depth 20, 24 B nodes, ~24 MiB) is about
// ten times a 2 MiB private L2, which makes it the pointer-chasing locality
// case; fib's leaves are trivial, so it prices spawn+touch alone.
const (
	fjWorkers   = 2
	fibN        = 27
	fibCut      = 12
	treeDepth   = 20
	treeCut     = 10
	qsortN      = 50_000
	qsortCut    = 1024
	rsDepth     = 9
	probeEvery  = 8 // time one Spawn/Touch in this many during traced rounds
	fjSeqPeriod = 3 // one plain-Go round after every this many runtime rounds
)

var fjKernels = [4]string{"fib", "treesum", "quicksort", "randstruct"}

type fjEnv struct {
	rt        *fl.Runtime
	tree      *treeNode
	treeNodes int
	qsrc      []int
	qdst      []int // the runtime rounds' sort buffer
	qplain    []int // the plain rounds' sort buffer
	rsSeed    uint64
	want      [4]int

	// Samples accumulated over the run's slices.
	rounds int
	// Per slice: median and p99 of its runtime rounds, and its plain-round
	// median over its runtime-round median.
	figs sliceFigures
	// A traced run's untraced and traced runtime rounds, and the spawn and
	// touch samples of the traced ones.
	untracedMs, tracedMs []float64
	probe                *spawnProbe
	counts               fl.RuntimeStats // summed over untraced rounds of a traced run
	wakeups              int64
	mallocs              uint64
	gcs                  uint32
}

func newFJEnv(seed uint64) (*fjEnv, error) {
	rng := seed*0x9E3779B97F4A7C15 | 1
	e := &fjEnv{
		tree:      buildTree(treeDepth, &rng),
		treeNodes: 1<<treeDepth - 1,
		qsrc:      make([]int, qsortN),
		qdst:      make([]int, qsortN),
		qplain:    make([]int, qsortN),
	}
	for i := range e.qsrc {
		rng = xorshift64(rng)
		e.qsrc[i] = int(rng % 1_000_000)
	}
	e.rsSeed = randstructSeed(rng, rsDepth)
	e.want = e.plainRound()
	e.rt = fl.NewRuntime(fl.WithWorkers(fjWorkers), fl.WithSeed(int64(seed)))
	if bad := e.round(nil, -1); bad != "" {
		e.close()
		return nil, fmt.Errorf("forkjoin warm-up: %s", bad)
	}
	return e, nil
}

func (e *fjEnv) close() {
	if e.rt != nil {
		e.rt.Shutdown()
	}
}

// plainRound runs the four kernels as plain Go, with no runtime.
func (e *fjEnv) plainRound() [4]int {
	return [4]int{
		fibPlain(fibN, fibCut),
		treeSumPlain(e.tree),
		quicksortPlain(e.qplain, e.qsrc, qsortCut),
		randstructPlain(e.rsSeed, rsDepth),
	}
}

// round runs one fl.Run per kernel and returns a description of the first
// wrong checksum, or "" when all four match the plain round's.
func (e *fjEnv) round(tr *tracer, key int64) string {
	root := tr.begin("forkjoin.round", -1, key)
	defer tr.end(root)
	rt := e.rt
	bodies := [4]func(*fl.W) int{
		func(w *fl.W) int { return fib(rt, w, fibN, fibCut) },
		func(w *fl.W) int { return treeSum(rt, w, e.tree, treeDepth, treeCut) },
		func(w *fl.W) int { return quicksort(rt, w, e.qdst, e.qsrc, qsortCut) },
		func(w *fl.W) int { return randstruct(rt, w, e.rsSeed, rsDepth) },
	}
	bad := ""
	for i, body := range bodies {
		sp := tr.begin("runtime.run."+fjKernels[i], root, key)
		got := fl.Run(rt, body)
		tr.end(sp)
		if got != e.want[i] && bad == "" {
			bad = fmt.Sprintf("%s = %d, want %d", fjKernels[i], got, e.want[i])
		}
	}
	return bad
}

// slice runs rounds for about d. Untraced, every round is a timed runtime
// round, and the first of every fjSeqPeriod is followed by a timed plain
// round. Traced, untraced rounds (the counts come from these) alternate
// with traced ones (spawn/touch samples and spans), so a change in host
// speed lands on both alike.
func (e *fjEnv) slice(o *outcome, d time.Duration, tr *tracer) {
	var rtMs, plainMs []float64
	for j, deadline := 0, time.Now().Add(d); time.Now().Before(deadline); j++ {
		i := e.rounds
		e.rounds++
		switch {
		case tr == nil:
			t0 := time.Now()
			bad := e.round(nil, int64(i))
			rtMs = append(rtMs, float64(time.Since(t0))/1e6)
			o.op(bad == "", "forkjoin round: "+bad)
			if j%fjSeqPeriod == 0 {
				t0 = time.Now()
				got := e.plainRound()
				plainMs = append(plainMs, float64(time.Since(t0))/1e6)
				o.op(got == e.want, "plain round changed its checksums")
			}
		case j%2 == 0:
			e.untracedMs = append(e.untracedMs, e.countedRound(o, i))
		default:
			if e.probe == nil {
				e.probe = newSpawnProbe(fjWorkers, probeEvery)
			}
			probe.Store(e.probe)
			t0 := time.Now()
			bad := e.round(tr, int64(i))
			e.tracedMs = append(e.tracedMs, float64(time.Since(t0))/1e6)
			probe.Store(nil)
			o.op(bad == "", "traced forkjoin round: "+bad)
		}
	}
	if len(rtMs) > 0 {
		p := pcts(rtMs, 50, 99)
		e.figs.add(p[0], p[1], median(plainMs)/p[0])
	}
}

func (e *fjEnv) commit(steal float64) { e.figs.commit(steal) }

// countedRound is an untraced runtime round whose scheduler and Go runtime
// counts are added to the run's totals; it returns the round's time in ms.
func (e *fjEnv) countedRound(o *outcome, i int) float64 {
	var ms0, ms1 gort.MemStats
	st0, w0 := e.rt.Stats(), e.rt.TelemetrySnapshot().Total(fl.CWakeups)
	gort.ReadMemStats(&ms0)
	t0 := time.Now()
	bad := e.round(nil, int64(i))
	ms := float64(time.Since(t0)) / 1e6
	gort.ReadMemStats(&ms1)
	st1, w1 := e.rt.Stats(), e.rt.TelemetrySnapshot().Total(fl.CWakeups)
	o.op(bad == "", "forkjoin round: "+bad)
	e.counts.TasksRun += st1.TasksRun - st0.TasksRun
	e.counts.Steals += st1.Steals - st0.Steals
	e.counts.StealAttempts += st1.StealAttempts - st0.StealAttempts
	e.counts.BlockedTouches += st1.BlockedTouches - st0.BlockedTouches
	e.counts.HelpedTasks += st1.HelpedTasks - st0.HelpedTasks
	e.wakeups += w1 - w0
	e.mallocs += ms1.Mallocs - ms0.Mallocs
	e.gcs += ms1.NumGC - ms0.NumGC
	return ms
}

func (e *fjEnv) facts() string {
	return fmt.Sprintf("forkjoin: %d workers; treesum working set %.1f MiB (%d nodes x %d B)",
		fjWorkers, float64(e.treeNodes*treeNodeBytes)/(1<<20), e.treeNodes, treeNodeBytes)
}

func (e *fjEnv) report(o *outcome, tr *tracer) {
	if tr == nil {
		// Each figure is a median over slices of the slice's own figure.
		// The speedup compares plain and runtime rounds of one slice,
		// which ran under the same host conditions.
		p := []float64{e.figs.median(0), e.figs.median(1)}
		o.set("fj_round_ms_p50", p[0], "ms")
		o.set("fj_round_ms_p99", p[1], "ms")
		o.set("fj_speedup", e.figs.median(2), "x")
		fmt.Fprintf(logw, "forkjoin: %d rounds; p50=%.3fms p99=%.3fms speedup=%.3f from %v\n",
			e.rounds, p[0], p[1], e.figs.median(2), &e.figs)
		return
	}
	o.set("deque.push_pop_ns", dequePushPop(), "ns")
	o.set("deque.steal_ns", dequeSteal(), "ns")
	n, st := float64(max(len(e.untracedMs), 1)), e.counts
	o.set("runtime.tasks_per_round", float64(st.TasksRun)/n, "count")
	o.set("runtime.steals_per_round", float64(st.Steals)/n, "count")
	o.set("runtime.steal_success", ratio(st.Steals, st.StealAttempts), "ratio")
	o.set("runtime.blocked_touches_per_round", float64(st.BlockedTouches)/n, "count")
	o.set("runtime.helped_per_round", float64(st.HelpedTasks)/n, "count")
	o.set("runtime.wakeups_per_round", float64(e.wakeups)/n, "count")
	o.set("go.allocs_per_task", float64(e.mallocs)/float64(max(st.TasksRun, 1)), "count")
	o.set("go.gc_cycles_per_round", float64(e.gcs)/n, "count")
	spawnNs, touchNs := e.probe.samples()
	sp, tp := pcts(spawnNs, 50), pcts(touchNs, 50, 99)
	o.set("runtime.spawn_ns_p50", sp[0], "ns")
	o.set("runtime.touch_ns_p50", tp[0], "ns")
	o.set("runtime.touch_ns_p99", tp[1], "ns")
	o.set("trace.forkjoin_overhead", median(e.tracedMs)/median(e.untracedMs)-1, "ratio")
	fmt.Fprintf(logw, "forkjoin traced: %d untraced rounds p50=%.3fms, %d traced p50=%.3fms; %d spawn and %d touch samples\n",
		len(e.untracedMs), median(e.untracedMs), len(e.tracedMs), median(e.tracedMs), len(spawnNs), len(touchNs))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// dequePushPop is the uncontended owner cost of one PushBottom plus one
// PopBottom on deque.Ptr, median over batches.
func dequePushPop() float64 {
	const batch, reps = 256, 400
	d := deque.NewPtr[int](batch)
	items := make([]int, batch)
	var per []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := range items {
			d.PushBottom(&items[i])
		}
		for range items {
			d.PopBottom()
		}
		per = append(per, float64(time.Since(t0))/batch)
	}
	return median(per)
}

// dequeSteal is the cost of one successful StealTop on deque.Ptr while its
// owner pushes and pops at the bottom on another goroutine: the thief's
// time divided by the items it took, median over rounds. The owner keeps
// between dequeLow and dequeHigh items queued, so the thief rarely finds
// the deque empty.
func dequeSteal() float64 {
	const (
		rounds, attempts    = 20, 4096
		dequeLow, dequeHigh = 64, 1024
	)
	d := deque.NewPtr[int](2 * dequeHigh)
	item := new(int)
	var (
		stolen atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var pushed, popped int64
		for !stop.Load() {
			if pushed-popped-stolen.Load() < dequeLow {
				for i := 0; i < dequeHigh-dequeLow; i++ {
					d.PushBottom(item)
				}
				pushed += dequeHigh - dequeLow
			}
			d.PushBottom(item)
			if _, ok := d.PopBottom(); ok {
				popped++
			}
			pushed++
		}
	}()
	var per []float64
	for r := 0; r < rounds; r++ {
		got := 0
		t0 := time.Now()
		for i := 0; i < attempts; i++ {
			if _, ok := d.StealTop(); ok {
				got++
			}
		}
		el := time.Since(t0)
		stolen.Add(int64(got))
		if got > 0 {
			per = append(per, float64(el)/float64(got))
		}
	}
	stop.Store(true)
	wg.Wait()
	if len(per) == 0 {
		return 0
	}
	return median(per)
}
