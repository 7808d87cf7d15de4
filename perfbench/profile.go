package main

import (
	"fmt"
	"time"
	"unsafe"

	fl "futurelocality"
	"futurelocality/internal/cache"
	"futurelocality/internal/core"
	"futurelocality/internal/dag"
	"futurelocality/internal/profile"
	"futurelocality/internal/sim"
)

// profile settings: a P=2 live run of randstruct, replayed by the simulator
// in simTrials seeded schedules through a 64-line LRU cache model.
const (
	profWorkers = 2
	profDepth   = 10
	simTrials   = 4
	cacheLines  = 64
)

var cacheModel = core.CacheModel{Lines: cacheLines, Kind: cache.LRU, Window: cacheLines - 1}

type profEnv struct {
	rt          *fl.Runtime
	rsSeed      uint64
	simSeed     int64
	want        int
	traceEvents int
	traceBytes  int

	// Samples accumulated over the run's slices.
	cycles     int
	cycleMs    []float64 // untraced cycles
	cycleSteal []float64 // share of each untraced cycle's CPU time the hypervisor stole
	coreSelfMs []float64 // traced cycles
	seeded     *core.Report
}

func newProfEnv(seed uint64) (*profEnv, error) {
	rng := randstructSeed(seed*0xD6E8FEB86659FD93|1, profDepth)
	e := &profEnv{
		rt:      fl.NewRuntime(fl.WithWorkers(profWorkers), fl.WithSeed(int64(seed))),
		rsSeed:  rng,
		simSeed: int64(xorshift64(rng) >> 33),
		want:    randstructPlain(rng, profDepth),
	}
	tr, err := e.profiledRun()
	if err != nil {
		e.close()
		return nil, fmt.Errorf("profile warm-up: %w", err)
	}
	e.traceEvents = tr.Len()
	e.traceBytes = tr.Len() * int(unsafe.Sizeof(profile.Event{}))
	return e, nil
}

func (e *profEnv) close() { e.rt.Shutdown() }

func (e *profEnv) body(w *fl.W) int { return randstruct(e.rt, w, e.rsSeed, profDepth) }

func (e *profEnv) profiledRun() (*fl.ProfileTrace, error) {
	if err := e.rt.StartProfile(); err != nil {
		return nil, err
	}
	got := fl.Run(e.rt, e.body)
	tr := e.rt.StopProfile()
	if got != e.want {
		return nil, fmt.Errorf("randstruct = %d, want %d", got, e.want)
	}
	return tr, nil
}

func (e *profEnv) analyzeOptions() core.AnalyzeOptions {
	return core.AnalyzeOptions{P: profWorkers, Trials: simTrials, Seed: e.simSeed, CacheModel: &cacheModel}
}

// verdict checks the paper's claims on one analyzed run: the reconstructed
// DAG is structured single-touch, the live run's deviations stay within
// P·T∞², and every simulated schedule's extra misses stay within
// C·(1+P·T∞²). It returns "" when all hold.
func verdict(recon *profile.Recon, rep *core.Report) string {
	c := rep.Class
	switch {
	case !c.Structured || !c.SingleTouch:
		return "class is not structured single-touch: " + c.String()
	case rep.DeviationBound == 0:
		return "no P·T∞² envelope granted"
	case recon.MeasuredDeviations() > rep.DeviationBound:
		return fmt.Sprintf("measured deviations %d > P·T∞² = %d", recon.MeasuredDeviations(), rep.DeviationBound)
	case rep.CacheCost == nil || rep.CacheCost.MissEnvelope == 0:
		return "no miss envelope granted"
	case !rep.CacheCost.WithinEnvelope():
		return fmt.Sprintf("simulated extra misses %d > C·(1+P·T∞²) = %d", rep.CacheCost.MaxExtra(), rep.CacheCost.MissEnvelope)
	}
	return ""
}

func meanDeviations(rep *core.Report) float64 {
	var s int64
	for _, d := range rep.Deviations {
		s += d
	}
	return float64(s) / float64(len(rep.Deviations))
}

// analyze is the analysis of a cycle: AnalyzeProfile of the trace with the
// cache model, then the verdict.
func (e *profEnv) analyze(tr *fl.ProfileTrace) (*fl.ProfileReport, string) {
	opts := e.analyzeOptions()
	rep, err := fl.AnalyzeProfile(tr, fl.ProfileOptions{
		P: opts.P, Trials: opts.Trials, Seed: opts.Seed, CacheModel: opts.CacheModel,
		NoMatrix: true, NoJobs: true,
	})
	if err != nil {
		return nil, err.Error()
	}
	return rep, verdict(rep.Recon, rep.Sim)
}

// cycle is one untraced profile cycle: a profiled live run, then the
// deviation and extra-miss analysis of its trace.
func (e *profEnv) cycle() (*core.Report, string) {
	tr, err := e.profiledRun()
	if err != nil {
		return nil, err.Error()
	}
	rep, bad := e.analyze(tr)
	if rep == nil {
		return nil, bad
	}
	return rep.Sim, bad
}

// slice runs cycles for about d; traced, untraced and traced cycles
// alternate.
func (e *profEnv) slice(o *outcome, d time.Duration, tr *tracer) {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); e.cycles++ {
		if tr != nil && e.cycles%2 == 1 {
			self, rep, bad := e.tracedCycle(tr, int64(e.cycles))
			o.op(bad == "", "traced profile cycle: "+bad)
			if bad == "" {
				e.coreSelfMs = append(e.coreSelfMs, self)
				e.checkSeeded(rep)
			}
			continue
		}
		steal0 := stealTicks()
		t0 := time.Now()
		rep, bad := e.cycle()
		e.cycleMs = append(e.cycleMs, float64(time.Since(t0))/1e6)
		e.cycleSteal = append(e.cycleSteal, stolen(steal0, stealTicks()))
		o.op(bad == "", "profile cycle: "+bad)
		if bad == "" {
			e.checkSeeded(rep)
		}
	}
}

// commit keeps nothing: each cycle carries its own steal share.
func (e *profEnv) commit(float64) {}

// checkSeeded keeps the first cycle's seeded simulator counts and reports
// any cycle whose counts differ: they depend only on the seed.
func (e *profEnv) checkSeeded(rep *core.Report) {
	if e.seeded == nil {
		e.seeded = rep
	} else if meanDeviations(rep) != meanDeviations(e.seeded) || rep.CacheCost.MeanExtra() != e.seeded.CacheCost.MeanExtra() {
		fmt.Fprintln(logw, "profile: seeded counts differ between cycles of one run")
	}
}

func (e *profEnv) facts() string {
	return fmt.Sprintf("profile: %d workers; trace working set %.2f MiB (%d events x %d B); cache model %v",
		profWorkers, float64(e.traceBytes)/(1<<20), e.traceEvents, e.traceBytes/max(e.traceEvents, 1), cacheModel)
}

func (e *profEnv) report(o *outcome, tr *tracer) {
	if tr == nil {
		// Percentiles of the quiet cycles of the whole run. A cycle lasts
		// a few ticks of /proc/stat, so a single stolen tick marks it: the
		// tail then measures this code, not the hypervisor's bursts, which
		// a per-slice figure cannot tell apart from it. The tail is p95: a
		// run where profile has a quarter of the time holds about 250
		// cycles, so its p99 would rest on two or three of them.
		var xs []float64
		for _, k := range quiet(e.cycleSteal) {
			xs = append(xs, e.cycleMs[k])
		}
		p := pcts(xs, 50, 95)
		o.set("prof_cycle_ms_p50", p[0], "ms")
		o.set("prof_cycle_ms_p95", p[1], "ms")
		fmt.Fprintf(logw, "profile: %d cycles; p50=%.3fms p95=%.3fms from %d quiet cycles\n",
			len(e.cycleMs), p[0], p[1], len(xs))
		return
	}
	// Recording overhead: the same kernel run with and without a session.
	var plainMs, profMs []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		got := fl.Run(e.rt, e.body)
		plainMs = append(plainMs, float64(time.Since(t0))/1e6)
		o.op(got == e.want, "profile: unprofiled randstruct")
		t0 = time.Now()
		_, err := e.profiledRun()
		profMs = append(profMs, float64(time.Since(t0))/1e6)
		o.op(err == nil, fmt.Sprint("profile: profiled randstruct: ", err))
	}
	o.set("profile.record_overhead", median(profMs)/median(plainMs), "ratio")
	o.set("profile.trace_events", float64(e.traceEvents), "count")
	o.set("profile.reconstruct_ms", median(tr.durations("profile.reconstruct")), "ms")
	o.set("sim.replay_ms", median(tr.durations("sim.replay")), "ms")
	o.set("cache.replay_ms", median(tr.durations("cache.replay")), "ms")
	o.set("cache.opt_ms", median(tr.durations("cache.opt")), "ms")
	o.set("core.analyze_ms", median(e.coreSelfMs), "ms")
	if e.seeded != nil {
		o.set("sim.deviations_mean", meanDeviations(e.seeded), "count")
		o.set("cache.extra_misses_mean", e.seeded.CacheCost.MeanExtra(), "count")
	}
	tracedMs := tr.durations("profile.cycle")
	o.set("trace.profile_overhead", median(tracedMs)/median(e.cycleMs)-1, "ratio")
	fmt.Fprintf(logw, "profile traced: %d untraced cycles p50=%.3fms, %d traced p50=%.3fms\n",
		len(e.cycleMs), median(e.cycleMs), len(tracedMs), median(tracedMs))
}

// tracedCycle is a cycle with spans around its profiled run and its
// analysis. After the cycle it makes again, each in a span of its own, the
// layer calls AnalyzeProfile makes: profile.Reconstruct, core.Analyze, and
// the sim and cache calls inside core.Analyze, so core's self time is
// core.Analyze's duration minus those calls' total.
func (e *profEnv) tracedCycle(t *tracer, key int64) (coreSelfMs float64, rep *core.Report, bad string) {
	cyc := t.begin("profile.cycle", -1, key)
	sp := t.begin("runtime.profiled_run", cyc, key)
	tr, err := e.profiledRun()
	t.end(sp)
	if err != nil {
		t.end(cyc)
		return 0, nil, err.Error()
	}
	sp = t.begin("profile.analyze", cyc, key)
	prep, bad := e.analyze(tr)
	t.end(sp)
	t.end(cyc)
	if bad != "" {
		return 0, nil, bad
	}

	sp = t.begin("profile.reconstruct", -1, key)
	recon, err := profile.Reconstruct(tr)
	t.end(sp)
	if err != nil {
		return 0, nil, err.Error()
	}
	opts := e.analyzeOptions()
	t0 := time.Now()
	rep, err = core.Analyze(recon.Graph, opts)
	analyzed := time.Now()
	t.add("core.analyze", -1, key, t0, analyzed)
	if err != nil {
		return 0, nil, err.Error()
	}
	devMean, parts, err := e.analyzeParts(t, key, recon.Graph, opts)
	if err != nil {
		return 0, rep, err.Error()
	}
	if devMean != meanDeviations(rep) || devMean != meanDeviations(prep.Sim) {
		return 0, rep, fmt.Sprintf("replayed sim deviations %.2f differ from core.Analyze's %.2f or AnalyzeProfile's %.2f",
			devMean, meanDeviations(rep), meanDeviations(prep.Sim))
	}
	return float64(analyzed.Sub(t0)-parts) / 1e6, rep, verdict(recon, rep)
}

// analyzeParts makes the sim and cache calls core.Analyze makes for opts,
// each in a span under one "core.analyze.parts" span. It returns the mean
// deviations of the simulated schedules and the calls' total time.
func (e *profEnv) analyzeParts(t *tracer, key int64, g *dag.Graph, opts core.AnalyzeOptions) (float64, time.Duration, error) {
	root := t.begin("core.analyze.parts", -1, key)
	defer t.end(root)
	var total time.Duration
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		t1 := time.Now()
		t.add(name, root, key, t0, t1)
		total += t1.Sub(t0)
	}
	var (
		seq, res *sim.Result
		eng      *sim.Engine
		err      error
		trials   []*sim.Result
		dev      int64
	)
	if timed("sim.sequential", func() { seq, err = sim.Sequential(g, opts.Policy, 0, cache.LRU) }); err != nil {
		return 0, 0, err
	}
	seqOrder := seq.SeqOrder()
	for i := 0; i < opts.Trials; i++ {
		timed("sim.replay", func() {
			eng, err = sim.New(g, sim.Config{P: opts.P, Policy: opts.Policy, Steal: opts.Steal,
				Control: sim.NewRandomControl(opts.Seed + int64(i))})
			if err == nil {
				res, err = eng.Run()
			}
		})
		if err != nil {
			return 0, 0, err
		}
		timed("sim.deviations", func() { dev += sim.Deviations(seqOrder, res) })
		trials = append(trials, res)
	}
	var fp *cache.Footprint
	timed("cache.footprint", func() { fp = cache.DeriveFootprint(g, cacheModel.Window) })
	for i, r := range append([]*sim.Result{seq}, trials...) {
		order, who := seqOrder, []int32(nil)
		if i > 0 {
			order, who = scheduleOf(r)
		}
		timed("cache.replay", func() {
			var set *cache.Set
			if set, err = cache.NewSet(cache.SetConfig{P: r.P, Kind: cacheModel.Kind, Lines: cacheModel.Lines}); err == nil {
				set.Replay(fp, order, who)
			}
		})
		if err != nil {
			return 0, 0, err
		}
	}
	timed("cache.opt", func() { cache.OptimalMisses(fp.Flatten(seqOrder), cacheModel.Lines) })
	return float64(dev) / float64(opts.Trials), total, nil
}

// scheduleOf returns a simulated run's global execution order and the
// processor of every node, the inputs of cache.Set.Replay.
func scheduleOf(r *sim.Result) ([]dag.NodeID, []int32) {
	order := make([]dag.NodeID, len(r.When))
	for id, w := range r.When {
		order[w] = dag.NodeID(id)
	}
	who := make([]int32, len(r.Who))
	for id, p := range r.Who {
		who[id] = int32(p)
	}
	return order, who
}
