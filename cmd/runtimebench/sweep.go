package main

import (
	"fmt"
	"os"
	gort "runtime"
	"sort"
	"time"

	fl "futurelocality"
)

// calOnce times one run of the fixed sequential kernel: a pure-CPU
// xorshift loop of ~10ms — long enough to sample the machine's current
// effective speed, short enough to interleave around every benchmark rep.
func calOnce() int64 {
	start := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x
	}
	ns := time.Since(start).Nanoseconds()
	if acc == 0 {
		fmt.Fprintln(os.Stderr, "runtimebench: calibration underflow")
		os.Exit(1)
	}
	return ns
}

// simModel, when non-nil, makes every measure() entry carry the
// footprint-replay cache-cost fields (set from -cachemodel in main).
var simModel *fl.CacheModel

func median64(xs []int64) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2]
}

func medianU64(xs []uint64) uint64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2]
}

func measure(name string, d fl.Discipline, sp fl.StealPolicy, topo *fl.Topology, workers, n, reps int, run func(*fl.Runtime, *fl.W) int, want int) Entry {
	opts := []fl.RuntimeOption{fl.WithWorkers(workers), fl.WithDiscipline(d), fl.WithStealPolicy(sp)}
	topoName := ""
	if topo != nil {
		opts = append(opts, fl.WithTopology(topo))
		topoName = topo.Source
	}
	rt := fl.NewRuntime(opts...)
	defer rt.Shutdown()
	check := func(got int) {
		if got != want {
			fmt.Fprintf(os.Stderr, "runtimebench: %s/%s/%s = %d, want %d\n", name, d, sp, got, want)
			os.Exit(1)
		}
	}
	// Warmup, and size the per-rep batch so one rep runs ≥40ms: a rep
	// comparable to the ~10ms calibration kernel would make the rep/cal
	// ratio noisy (a burst can hit one without the other), and short-lived
	// scenarios need a batch long enough to average over GC placement. Two
	// warmup runs, sized by the faster one: the first run often pays
	// one-time costs (lazy allocation, cold caches) and would undersize
	// the batch.
	single := int64(0)
	for i := 0; i < 2; i++ {
		start := time.Now()
		check(fl.Run(rt, func(w *fl.W) int { return run(rt, w) }))
		ns := time.Since(start).Nanoseconds()
		if single == 0 || ns < single {
			single = ns
		}
	}
	iters := 1
	if single > 0 && single < 40e6 {
		iters = int(40e6/single) + 1
	}
	var times []int64
	var allocs []uint64
	bestRatio := 0.0
	var ms0, ms1 gort.MemStats
	for r := 0; r < reps; r++ {
		c0 := calOnce()
		gort.ReadMemStats(&ms0)
		start := time.Now()
		for it := 0; it < iters; it++ {
			check(fl.Run(rt, func(w *fl.W) int { return run(rt, w) }))
		}
		elapsed := time.Since(start)
		gort.ReadMemStats(&ms1)
		c1 := calOnce()
		times = append(times, elapsed.Nanoseconds()/int64(iters))
		allocs = append(allocs, (ms1.Mallocs-ms0.Mallocs)/uint64(iters))
		ratio := float64(elapsed.Nanoseconds()) * 2 / float64(iters) / float64(c0+c1)
		if bestRatio == 0 || ratio < bestRatio {
			bestRatio = ratio
		}
	}
	st := rt.Stats()
	runs64 := int64(reps*iters + 2) // + the two warmup runs
	ns := median64(times)           // sorts times; times[0] is now the best rep
	e := Entry{
		Workload: name, Discipline: d.String(), Steal: sp.String(), Workers: workers, N: n,
		MedianMS: float64(ns) / 1e6, NsPerOp: ns, BestNs: times[0], BestRatio: bestRatio,
		AllocsOp: medianU64(allocs), Reps: reps,
		Tasks: st.TasksRun / runs64, Steals: st.Steals / runs64,
		Inline: st.InlineTouches / runs64, Helped: st.HelpedTasks / runs64,
		Blocked:  st.BlockedTouches / runs64,
		Topology: topoName, IntraSteals: st.IntraSteals / runs64, CrossSteals: st.CrossSteals / runs64,
	}
	if simModel != nil {
		// One extra profiled run (outside the timed reps and after Stats was
		// read) reconstructs this workload's DAG; the cache-cost replay then
		// charges it under this entry's own (discipline × steal) pair. The
		// OPT baseline is skipped — the entry doesn't record it.
		if err := rt.StartProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "runtimebench: cache model:", err)
			os.Exit(1)
		}
		check(fl.Run(rt, func(w *fl.W) int { return run(rt, w) }))
		model := *simModel
		model.NoIdeal = true
		rep, err := fl.AnalyzeProfile(rt.StopProfile(), fl.ProfileOptions{
			P: workers, Trials: 2, NoMatrix: true, NoJobs: true,
			Policy: d, Steal: sp, CacheModel: &model,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "runtimebench: cache model:", err)
			os.Exit(1)
		}
		cc := rep.Sim.CacheCost
		e.CacheModel = cc.Model.String()
		e.SimSeqMisses = cc.SeqMisses
		e.SimExtraMisses = cc.MeanExtra()
		e.SimExtraMissesMax = cc.MaxExtra()
		e.SimMissEnvelope = cc.MissEnvelope
	}
	return e
}

// sweepParams carries the workload sizes of the (workload × discipline ×
// steal) throughput sweep.
type sweepParams struct {
	fibN, cutoff, items       int
	treeDepth, treeCut, dim   int
	qsortN, qsortCut, rsDepth int
	rsSeed                    uint64
	topo                      *fl.Topology
}

// sweep measures every headline workload under every (fork discipline ×
// steal policy) pair.
func sweep(wk, reps int, p sweepParams) []Entry {
	fibN, cutoff, items := p.fibN, p.cutoff, p.items
	treeDepth, treeCut, dim := p.treeDepth, p.treeCut, p.dim
	qsortN, qsortCut := p.qsortN, p.qsortCut
	rsDepth, rsSeed := p.rsDepth, p.rsSeed

	fibWant := fibSeq(fibN)
	pipeWant := 0
	for i := 0; i < items; i++ {
		pipeWant ^= i*31 + 7
	}
	next := 0
	tree := buildTree(treeDepth, &next)
	treeWant := treeSumSeq(tree)
	a := make([]float64, dim*dim)
	b := make([]float64, dim*dim)
	c := make([]float64, dim*dim)
	for i := range a {
		a[i] = float64(i%7) - 3
		b[i] = float64(i%5) - 2
	}
	qsrc := make([]int, qsortN)
	qdst := make([]int, qsortN)
	{
		x := uint64(0x9e3779b97f4a7c15)
		for i := range qsrc {
			x = xorshift64(x)
			qsrc[i] = int(x % 1_000_000)
		}
	}
	// Schedule-independent checksums, computed once on a single worker.
	var matWant, qsortWant, rsWant int
	{
		rt := fl.NewRuntime(fl.WithWorkers(1))
		matWant = fl.Run(rt, func(w *fl.W) int { return matmul(rt, w, a, b, c, dim) })
		qsortWant = fl.Run(rt, func(w *fl.W) int { return quicksort(rt, w, qdst, qsrc, qsortCut) })
		rsWant = fl.Run(rt, func(w *fl.W) int { return randstruct(rt, w, rsSeed, rsDepth) })
		rt.Shutdown()
	}

	var entries []Entry
	for _, d := range []fl.Discipline{fl.FutureFirst, fl.ParentFirst} {
		for _, sp := range fl.StealPolicies {
			d, sp := d, sp
			entries = append(entries,
				measure("fib", d, sp, p.topo, wk, fibN, reps,
					func(rt *fl.Runtime, w *fl.W) int { return fib(rt, w, fibN, cutoff) }, fibWant),
				measure("pipeline", d, sp, p.topo, wk, items, reps,
					func(rt *fl.Runtime, w *fl.W) int { return pipeline(rt, w, items) }, pipeWant),
				measure("treesum", d, sp, p.topo, wk, treeDepth, reps,
					func(rt *fl.Runtime, w *fl.W) int { return treeSum(rt, w, tree, treeDepth, treeCut) }, treeWant),
				measure("matmul", d, sp, p.topo, wk, dim, reps,
					func(rt *fl.Runtime, w *fl.W) int { return matmul(rt, w, a, b, c, dim) }, matWant),
				measure("quicksort", d, sp, p.topo, wk, qsortN, reps,
					func(rt *fl.Runtime, w *fl.W) int { return quicksort(rt, w, qdst, qsrc, qsortCut) }, qsortWant),
				measure("randstruct", d, sp, p.topo, wk, rsDepth, reps,
					func(rt *fl.Runtime, w *fl.W) int { return randstruct(rt, w, rsSeed, rsDepth) }, rsWant),
			)
		}
	}
	return entries
}
