package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	fl "futurelocality"
)

// serve settings. The job mix is runtimebench's serve kinds: each job runs
// only tens of tasks, so admission, routing, queue wait and completion→wake
// dominate, not the deque.
const (
	serveShards      = 2
	serveWorkers     = 2 // one per shard
	serveMaxInFlight = 512
	serveTreeDepth   = 12
	serveTreeCut     = 8
	servePipeItems   = 512
	rateLo           = 2000.0 // jobs/s
	rateHi           = 8000.0 // jobs/s
	// A rate is sustained when p99 latency stays at or under maxRateP99Ms,
	// at most maxRateShed of the offered jobs are shed, and the generator's
	// lateness grows by at most lateGrowthMs over a window.
	maxRateP99Ms  = 10.0
	maxRateShed   = 0.01
	maxRateStart  = 8000.0
	maxRateCoarse = 8 // bracket steps budgeted in the first slice; it may take more
	maxRateRungs  = 9
	lateGrowthMs  = 1.0
	// The generator reads the host's steal ticks every stealEvery. A job's
	// steal share is read between the readings around its due time and
	// its completion, each widened by stealGuard because the kernel books
	// stolen time at its next tick.
	stealEvery = 10 * time.Millisecond
	stealGuard = 5 * time.Millisecond
)

type serveKind struct {
	fn   func(*fl.W) int
	want int
}

type serveEnv struct {
	seed  uint64
	pool  *fl.Pool
	kinds [3]serveKind

	windows int           // windows run so far; each takes the next arrival seed
	rates   []float64     // the max-rate ladder, set by the first slice
	pending []*serveRun   // the last slice's windows: lo, hi, then one per rung
	slices  [][]*serveRun // each committed slice's windows
	// A traced run's windows.
	hiUntraced, hiTraced, loTraced serveRun
}

func newServeEnv(seed uint64) (*serveEnv, error) {
	rng := seed*0xBF58476D1CE4E5B9 | 1
	tree := buildTree(serveTreeDepth, &rng)
	e := &serveEnv{
		seed: seed,
		pool: fl.NewPool(fl.WithShards(serveShards), fl.WithPoolWorkers(serveWorkers),
			fl.WithPoolMaxInFlight(serveMaxInFlight)),
		kinds: [3]serveKind{
			{func(w *fl.W) int { return fib(w.Runtime(), w, 20, 12) }, fibPlain(20, 12)},
			{func(w *fl.W) int { return treeSum(w.Runtime(), w, tree, serveTreeDepth, serveTreeCut) }, treeSumPlain(tree)},
			{func(w *fl.W) int { return pipeline(w.Runtime(), w, servePipeItems) }, pipelinePlain(servePipeItems)},
		},
	}
	if r := e.at(rateLo, 200*time.Millisecond, seed, nil); r.wrong+r.shed > 0 {
		e.close()
		return nil, fmt.Errorf("serve warm-up: %d wrong, %d shed of %d", r.wrong, r.shed, r.offered)
	}
	return e, nil
}

func (e *serveEnv) close() { e.pool.Shutdown() }

func (e *serveEnv) facts() string {
	return fmt.Sprintf("serve: %d shards x %d worker; admission cap %d; fixed rates %.0f and %.0f jobs/s",
		serveShards, serveWorkers/serveShards, serveMaxInFlight, rateLo, rateHi)
}

// serveRun is the record of one open-loop window at a fixed offered rate.
type serveRun struct {
	rate                   float64
	offered, shed, wrong   int
	windows                int       // windows merged
	winP99                 []float64 // each merged window's p99 latency, ms
	winGrowth              []float64 // each merged window's lateness growth, ms
	winShed                []float64 // each merged window's shed share
	winSteal               []float64 // each merged window's share of CPU time stolen by the hypervisor
	forwarded              int64
	latMs                  []float64 // due → Wait return, completed jobs
	latSteal               []float64 // share of CPU time stolen around each latMs job
	lateMs                 []float64 // due → Submit call, in due order
	submitUs               []float64 // traced only
	queueMs, execMs, wakeU []float64 // traced only
	perShard               [serveShards]int
}

func (r *serveRun) shedFrac() float64 { return ratio(int64(r.shed), int64(r.offered)) }

// lateGrowth is how much further behind the generator fell over a single
// window: the last quarter's median lateness minus the first quarter's.
func (r *serveRun) lateGrowth() float64 {
	q := len(r.lateMs) / 4
	if q < 10 {
		return 0
	}
	return median(r.lateMs[3*q:]) - median(r.lateMs[:q])
}

// sustained judges a window, or several merged: no wrong results, and shed
// share, lateness growth and p99 within maxRateShed, lateGrowthMs and
// maxRateP99Ms.
func (r *serveRun) sustained() bool {
	return r.wrong == 0 && len(r.winP99) > 0 && r.load() <= 1
}

// load is how near the windows came to failing: the largest of p99 over
// maxRateP99Ms, the shed share over maxRateShed, and the lateness growth
// over lateGrowthMs. It is at most 1 where sustained, and grows smoothly
// with the offered rate, whichever condition fails first. Each figure is
// a median over the quiet windows (see quietMedian).
func (r *serveRun) load() float64 {
	return max(r.p99()/maxRateP99Ms, r.quietMedian(r.winShed)/maxRateShed,
		r.quietMedian(r.winGrowth)/lateGrowthMs)
}

// p99 is the median over the quiet windows of each window's p99 latency.
func (r *serveRun) p99() float64 { return r.quietMedian(r.winP99) }

// quietMedian is the median of a per-window figure over the windows the
// hypervisor stole least from (see quiet), so a stall of the host that
// lands in one window moves that window's figure, not the result.
func (r *serveRun) quietMedian(xs []float64) float64 {
	var q []float64
	for _, k := range quiet(r.winSteal) {
		q = append(q, xs[k])
	}
	return median(q)
}

// at offers Poisson arrivals at rate for d and waits for every admitted job.
// Arrival times come from seed. Each wake of the generator submits every
// arrival already due, and each job's latency runs from its due time, so a
// late generator shows as latency and lateness, not as a lower rate.
func (e *serveEnv) at(rate float64, d time.Duration, seed uint64, tr *tracer) *serveRun {
	r := &serveRun{rate: rate}
	rng := xorshift64(seed*0x94D049BB133111EB | 1)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	type span struct{ due, done time.Time }
	var (
		jobs  []span // completed jobs, in latMs order
		marks []stealMark
	)
	mark := func() { marks = append(marks, stealMark{time.Now(), stealTicks()}) }
	fwd0, steal0 := e.pool.Forwarded(), stealTicks()
	start := time.Now()
	end := start.Add(d)
	mark()
	exp := func() time.Duration {
		rng = xorshift64(rng)
		u := (float64(rng>>11) + 1) / (1 << 53)
		return time.Duration(-math.Log(u) / rate * float64(time.Second))
	}
	due := start.Add(exp())
	for key := int64(0); due.Before(end); {
		now := time.Now()
		if now.Sub(marks[len(marks)-1].at) >= stealEvery {
			mark()
		}
		for ; !due.After(now) && due.Before(end); due = due.Add(exp()) {
			rng = xorshift64(rng)
			k := e.kinds[rng%3]
			key++
			job := tr.begin("serve.job", -1, key)
			t0 := time.Now()
			j, err := fl.PoolSubmit(e.pool, k.fn)
			t1 := time.Now()
			tr.add("shard.submit", job, key, t0, t1)
			r.offered++
			r.lateMs = append(r.lateMs, float64(t0.Sub(due))/1e6)
			if tr != nil {
				r.submitUs = append(r.submitUs, float64(t1.Sub(t0))/1e3)
			}
			if err != nil {
				tr.end(job)
				if errors.Is(err, fl.ErrSaturated) {
					r.shed++
					continue
				}
				mu.Lock()
				r.wrong++
				mu.Unlock()
				fmt.Fprintln(os.Stderr, "perfbench: serve submit:", err)
				continue
			}
			wg.Add(1)
			go func(j fl.PoolJob[int], want int, due, t0 time.Time, job int32, key int64) {
				defer wg.Done()
				w0 := time.Now()
				v, err := j.WaitErr()
				done := time.Now()
				tr.add("runtime.wait", job, key, w0, done)
				tr.end(job)
				mu.Lock()
				defer mu.Unlock()
				if err != nil || v != want {
					r.wrong++
					fmt.Fprintf(os.Stderr, "perfbench: serve job = %d (%v), want %d\n", v, err, want)
					return
				}
				r.latMs = append(r.latMs, float64(done.Sub(due))/1e6)
				jobs = append(jobs, span{due, done})
				r.perShard[j.Shard()]++
				if tr != nil {
					st := j.Stats()
					r.queueMs = append(r.queueMs, float64(st.QueueWait)/1e6)
					r.execMs = append(r.execMs, float64(st.Latency-st.QueueWait)/1e6)
					r.wakeU = append(r.wakeU, float64(done.Sub(t0.Add(st.Latency)))/1e3)
				}
			}(j, k.want, due, t0, job, key)
		}
		if due.Before(end) {
			time.Sleep(time.Until(due))
		}
	}
	wg.Wait()
	mark()
	for _, j := range jobs {
		r.latSteal = append(r.latSteal, stolenAround(marks, j.due.Add(-stealGuard), j.done.Add(stealGuard)))
	}
	r.forwarded = e.pool.Forwarded() - fwd0
	r.windows = 1
	r.winGrowth = []float64{r.lateGrowth()}
	r.winSteal = []float64{stolen(steal0, stealTicks())}
	r.winShed = []float64{r.shedFrac()}
	if len(r.latMs) > 0 {
		r.winP99 = pcts(r.latMs, 99)
	}
	return r
}

// stealMark is a reading of the host's steal ticks.
type stealMark struct {
	at    time.Time
	ticks [2]int64
}

// stolenAround is the share of CPU time stolen between the last mark at or
// before t0 and the first at or after t1 (the nearest marks inside the
// list where there is none).
func stolenAround(marks []stealMark, t0, t1 time.Time) float64 {
	i := sort.Search(len(marks), func(k int) bool { return marks[k].at.After(t0) })
	j := sort.Search(len(marks), func(k int) bool { return !marks[k].at.Before(t1) })
	return stolen(marks[max(i-1, 0)].ticks, marks[min(j, len(marks)-1)].ticks)
}

// merge appends w's samples and counts to r.
func (r *serveRun) merge(w *serveRun) {
	r.rate = w.rate
	r.windows += w.windows
	r.winGrowth = append(r.winGrowth, w.winGrowth...)
	r.winSteal = append(r.winSteal, w.winSteal...)
	r.winShed = append(r.winShed, w.winShed...)
	r.offered += w.offered
	r.shed += w.shed
	r.wrong += w.wrong
	r.forwarded += w.forwarded
	r.latMs = append(r.latMs, w.latMs...)
	r.latSteal = append(r.latSteal, w.latSteal...)
	r.winP99 = append(r.winP99, w.winP99...)
	r.lateMs = append(r.lateMs, w.lateMs...)
	r.submitUs = append(r.submitUs, w.submitUs...)
	r.queueMs = append(r.queueMs, w.queueMs...)
	r.execMs = append(r.execMs, w.execMs...)
	r.wakeU = append(r.wakeU, w.wakeU...)
	for i, n := range w.perShard {
		r.perShard[i] += n
	}
}

// record counts a window's jobs as operations: a shed or wrong job fails.
func (r *serveRun) record(o *outcome, what string) {
	o.Attempted += int64(r.offered)
	if bad := r.shed + r.wrong; bad > 0 {
		o.Failed += int64(bad)
		o.Correct = o.Correct && r.wrong == 0
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d shed, %d wrong of %d\n", what, r.shed, r.wrong, r.offered)
	}
}

// serveTotals pools windows by offered rate: the lo and hi rates and the
// rungs of the max-rate ladder, keyed by rate.
type serveTotals struct {
	lo, hi serveRun
	rungs  map[float64]*serveRun
}

// add merges one slice's windows: lo, hi, then one per rung.
func (t *serveTotals) add(ws []*serveRun) {
	t.lo.merge(ws[0])
	t.hi.merge(ws[1])
	if t.rungs == nil {
		t.rungs = map[float64]*serveRun{}
	}
	for _, w := range ws[2:] {
		if t.rungs[w.rate] == nil {
			t.rungs[w.rate] = &serveRun{}
		}
		t.rungs[w.rate].merge(w)
	}
}

// rung returns the pooled windows at a ladder rate (empty if none ran).
func (t *serveTotals) rung(rate float64) *serveRun {
	if r := t.rungs[rate]; r != nil {
		return r
	}
	return &serveRun{rate: rate}
}

// slice runs one pass of open-loop windows for about d. Untraced: the
// first slice brackets the maximum rate; every later one runs one window at
// the lo rate, one at the hi rate and one at each rung of the max-rate
// ladder, so every rate samples the same mix of host conditions over the
// run and is judged on all its windows. Traced: an untraced and a traced
// window at the hi rate, then a traced window at the lo rate.
func (e *serveEnv) slice(o *outcome, d time.Duration, tr *tracer) {
	if tr != nil {
		w := d / 3
		e.hiUntraced.merge(e.window(rateHi, w, nil))
		e.hiTraced.merge(e.window(rateHi, w, tr))
		e.loTraced.merge(e.window(rateLo, w, tr))
		return
	}
	if e.rates == nil {
		e.bracket(d)
		return
	}
	// The fixed rates get longer windows, so each holds enough jobs for
	// its own p95.
	w := d / time.Duration(7+len(e.rates))
	e.pending = []*serveRun{e.window(rateLo, 4*w, nil), e.window(rateHi, 3*w, nil)}
	for _, rate := range e.rates {
		e.pending = append(e.pending, e.window(rate, w, nil))
	}
}

// commit keeps the slice's windows; each window carries its own steal
// share, so the slice's is not needed.
func (e *serveEnv) commit(float64) {
	if len(e.pending) == 0 {
		return
	}
	e.slices = append(e.slices, e.pending)
	e.pending = nil
	// Extend the ladder when its top still holds or its bottom fails, so a
	// bracket thrown off by a stall cannot cap or floor the result.
	t := e.totals()
	step := e.rates[1] / e.rates[0]
	if top := e.rates[len(e.rates)-1]; t.rung(top).sustained() {
		e.rates = append(e.rates, top*step)
	}
	if !t.rung(e.rates[0]).sustained() {
		e.rates = append([]float64{e.rates[0] / step}, e.rates...)
	}
}

// totals pools the windows of every committed slice.
func (e *serveEnv) totals() *serveTotals {
	t := &serveTotals{}
	for _, ws := range e.slices {
		t.add(ws)
	}
	return t
}

// window runs one open-loop window on the next arrival seed.
func (e *serveEnv) window(rate float64, d time.Duration, tr *tracer) *serveRun {
	e.windows++
	return e.at(rate, d, e.seed+uint64(e.windows), tr)
}

// bracket finds a factor-√2 bracket around the maximum sustained rate,
// with no ceiling: it raises the rate by √2 from maxRateStart until a step
// fails, or lowers it until one holds. A failed step counts only when a
// second window at the same rate fails too, since one host stall can sink
// a short window. Steps take d/maxRateCoarse each. It then sets the
// ladder: maxRateRungs rates spanning the bracket widened by a bracket each
// way.
func (e *serveEnv) bracket(d time.Duration) {
	holds := func(rate float64) bool {
		for try := 0; try < 2; try++ {
			r := e.window(rate, d/maxRateCoarse, nil)
			fmt.Fprintf(logw, "serve max-rate bracket: rate=%.0f/s offered=%d shed=%d p99=%.3fms -> %v\n",
				rate, r.offered, r.shed, r.p99(), r.sustained())
			if r.sustained() {
				return true
			}
		}
		return false
	}
	lo, hi := 0.0, 0.0
	for rate := maxRateStart; (lo == 0 || hi == 0) && rate >= 1 && rate <= 1e9; {
		if holds(rate) {
			lo = rate
			rate *= math.Sqrt2
		} else {
			hi = rate
			rate /= math.Sqrt2
		}
	}
	if lo == 0 { // every rate failed
		lo = hi / math.Sqrt2
	}
	step := math.Pow(4, 1/float64(maxRateRungs-1)) // the ladder spans lo/√2 .. 2·hi = 4 lo/√2
	for i := 0; i < maxRateRungs; i++ {
		e.rates = append(e.rates, lo/math.Sqrt2*math.Pow(step, float64(i)))
	}
}

// maxRate is the highest sustained rung of those t holds windows for,
// refined to where the load crosses 1 on the way to the next such rung
// (log-linear in both). Jobs shed at overloaded rungs are the measurement,
// not failures.
func (e *serveEnv) maxRate(t *serveTotals) float64 {
	var rates []float64
	for _, rate := range e.rates {
		if t.rung(rate).windows > 0 {
			rates = append(rates, rate)
		}
	}
	// If even the lowest rung failed, the limit lies below the ladder: the
	// rung under it is the best figure the run has.
	best := e.rates[0] * e.rates[0] / e.rates[1]
	for i, rate := range rates {
		r := t.rung(rate)
		fmt.Fprintf(logw, "serve max-rate rung: rate=%.0f/s windows=%d offered=%d shed=%d p99=%.3fms late_growth=%.3fms load=%.2f\n",
			rate, r.windows, r.offered, r.shed, r.p99(), r.quietMedian(r.winGrowth), r.load())
		if !r.sustained() {
			break
		}
		best = rate
		if i+1 < len(rates) {
			next := t.rung(rates[i+1])
			if l, q := r.load(), next.load(); q > 1 && next.wrong == 0 && l > 0 {
				best = rate * math.Pow(rates[i+1]/rate, math.Log(1/l)/math.Log(q/l))
			}
		}
	}
	return best
}

func (e *serveEnv) report(o *outcome, tr *tracer) {
	if tr == nil {
		all := e.totals()
		all.lo.record(o, "serve lo")
		all.hi.record(o, "serve hi")
		for _, c := range []struct {
			name string
			r    *serveRun
		}{{"lo", &all.lo}, {"hi", &all.hi}} {
			// Percentiles of the rate's quiet jobs over the whole run: a
			// job is judged by the steal around it, since a stall of the
			// host delays the jobs in flight and queued behind it, and
			// even a window of a few hundred milliseconds catches several.
			// The tail reported is p95: a run's p99 of these
			// sub-millisecond latencies follows the host's wake-up stalls
			// and swings by more than any useful bound between runs of
			// identical code.
			var xs []float64
			for _, k := range quiet(c.r.latSteal) {
				xs = append(xs, c.r.latMs[k])
			}
			p := append(pcts(xs, 50, 95), pcts(c.r.latMs, 99)...)
			o.set("serve_"+c.name+"_ms_p50", p[0], "ms")
			o.set("serve_"+c.name+"_ms_p95", p[1], "ms")
			fmt.Fprintf(logw, "serve %s: rate=%.0f/s from %d of %d jobs: p50=%.3fms p95=%.3fms; all jobs: p99=%.3fms late_p99=%.3fms\n",
				c.name, c.r.rate, len(xs), len(c.r.latMs), p[0], p[1], p[2], pcts(c.r.lateMs, 99)[0])
		}
		o.set("serve_max_rate_jobs_s", e.maxRate(all), "jobs/s")
		return
	}
	e.hiUntraced.record(o, "serve hi untraced")
	e.hiTraced.record(o, "serve hi traced")
	e.loTraced.record(o, "serve lo traced")
	o.set("runtime.run_empty_us", runEmpty(e.pool.Runtime(0)), "us")
	r := &e.hiTraced
	sub := pcts(r.submitUs, 50, 99)
	o.set("shard.submit_us_p50", sub[0], "us")
	o.set("shard.submit_us_p99", sub[1], "us")
	o.set("shard.forwarded_frac", ratio(r.forwarded, int64(r.offered)), "ratio")
	o.set("shard.shed_frac", r.shedFrac(), "ratio")
	minJobs, maxJobs := r.perShard[0], r.perShard[0]
	for _, n := range r.perShard {
		minJobs, maxJobs = min(minJobs, n), max(maxJobs, n)
	}
	o.set("shard.imbalance", float64(maxJobs)/float64(max(minJobs, 1)), "ratio")
	q := pcts(r.queueMs, 50, 99)
	o.set("runtime.queue_wait_ms_p50", q[0], "ms")
	o.set("runtime.queue_wait_ms_p99", q[1], "ms")
	o.set("runtime.exec_ms_p50", pcts(r.execMs, 50)[0], "ms")
	wk := pcts(e.loTraced.wakeU, 50, 99)
	o.set("runtime.wake_us_p50", wk[0], "us")
	o.set("runtime.wake_us_p99", wk[1], "us")
	late := pcts(r.lateMs, 50, 99)
	o.set("loadgen.late_ms_p50", late[0], "ms")
	o.set("loadgen.late_ms_p99", late[1], "ms")
	o.set("trace.serve_overhead", median(r.latMs)/median(e.hiUntraced.latMs)-1, "ratio")
	fmt.Fprintf(logw, "serve traced: hi untraced p50=%.3fms traced p50=%.3fms (%d jobs)\n",
		median(e.hiUntraced.latMs), median(r.latMs), len(r.latMs))
}

// runEmpty is the median time of one fl.Run of an empty root with the
// workers given time to park first: inject, wake, execute, complete and
// wake the caller.
func runEmpty(rt *fl.Runtime) float64 {
	var us []float64
	for i := 0; i < 300; i++ {
		time.Sleep(200 * time.Microsecond)
		t0 := time.Now()
		fl.Run(rt, func(*fl.W) int { return 0 })
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us)
}
