package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	fl "futurelocality"
	"futurelocality/internal/stats"
)

// TimelinePoint is one periodic telemetry sample of a serve run, read from
// the always-on counters, the latency histogram, and the flight recorder's
// rolling envelope.
type TimelinePoint struct {
	TSec             float64 `json:"t_s"`
	JobsDone         int64   `json:"jobs_done"`
	JobsShed         int64   `json:"jobs_shed"`
	InFlight         int     `json:"in_flight"`
	TasksRun         int64   `json:"tasks_run"`
	Steals           int64   `json:"steals"`
	P99LatencyMS     float64 `json:"p99_latency_ms"`
	FlightDeviations int64   `json:"flight_deviations"`
	FlightEnvelope   int64   `json:"flight_envelope"`
	WithinBound      bool    `json:"within_bound"`
}

// samplePoint reads one timeline sample off the live pool — atomic
// snapshot loads plus a flight-window reconstruction per shard, cheap
// enough for a 500ms cadence: counters and steals summed over the shard
// snapshots, the tail from the merged latency histogram, shed from the
// router (jobs dropped everywhere, not per-shard refusals), and the flight
// fields summed over the shards carrying recorders — WithinBound only when
// every recorded window sits inside its envelope.
func samplePoint(p *fl.Pool, start time.Time) TimelinePoint {
	pt := TimelinePoint{
		TSec:         time.Since(start).Seconds(),
		JobsShed:     p.Shed(),
		InFlight:     p.InFlight(),
		P99LatencyMS: float64(p.LatencyHist().Quantile(0.99)) / 1e6,
	}
	for _, s := range p.TelemetrySnapshots() {
		pt.JobsDone += s.Total(fl.CJobsCompleted)
		pt.TasksRun += s.Total(fl.CTasksRun)
		pt.Steals += s.Steals()
	}
	within, any := true, false
	for i := 0; i < p.Shards(); i++ {
		env, err := p.FlightEnvelope(i)
		if err != nil {
			continue
		}
		any = true
		pt.FlightDeviations += env.Deviations
		pt.FlightEnvelope += env.Budget
		within = within && env.Within()
	}
	pt.WithinBound = any && within
	return pt
}

// serveKind is one of the small mixed request bodies the serve scenario
// submits, with its expected result (checked per job — a server that
// answers fast but wrong is not a server).
type serveKind struct {
	fn   func(*fl.W) int
	want int
}

// makeServeKinds precomputes the three job bodies once per server, so the
// arrival loop submits existing closures instead of allocating one per
// request — the submit path under measurement stays the pool's, not the
// harness's. The bodies resolve the runtime from the executing worker
// (w.Runtime()), so a job the router forwarded to another shard spawns its
// interior tasks on that shard — whole jobs move between shards, interior
// tasks never do.
func makeServeKinds(tree *treeNode, treeDepth, treeCut int) [3]serveKind {
	const items = 512
	pipeWant := 0
	for i := 0; i < items; i++ {
		pipeWant ^= i*31 + 7
	}
	return [3]serveKind{
		{func(w *fl.W) int { return fib(w.Runtime(), w, 20, 12) }, fibSeq(20)},
		{func(w *fl.W) int { return treeSum(w.Runtime(), w, tree, treeDepth, treeCut) }, treeSumSeq(tree)},
		{func(w *fl.W) int { return pipeline(w.Runtime(), w, items) }, pipeWant},
	}
}

// serveConfig parameterizes one open-loop job-server run.
type serveConfig struct {
	workload    string // the Entry.Workload tag: "serve" or "knee"
	workers     int
	dur         time.Duration
	rate        float64 // offered arrival rate, jobs/sec
	maxInFlight int
	seed        uint64
	// batch groups arrivals: each arrival event carries batch jobs submitted
	// in one SubmitAll visit (the batching front-end model — a proxy
	// coalescing requests), at an event rate of rate/batch so the offered
	// job rate is unchanged. 0 or 1 submits singly.
	batch int
	// timeline enables the 500ms telemetry sampler (the serve scenario's
	// live view; the knee sweep leaves it off — many short runs).
	timeline bool
	// shards is the pool's member-runtime count: domain-aligned runtimes
	// behind the job router (1 = a single runtime serving jobs).
	shards int
}

// serve runs one job-server scenario on a pool of cfg.shards runtimes: an
// open-loop arrival process (the next arrival is scheduled by an
// exponential inter-arrival draw from the offered rate, independent of
// completions — so a slow server builds queue and its latency tail shows
// it, exactly what a closed loop would hide) submitting small mixed
// fib/treesum/pipeline jobs for the given duration, with
// WithPoolMaxInFlight admission shedding overload. The measured knee
// includes placement and overflow forwarding, not just one runtime's
// admission. It reports sustained throughput and the completed jobs'
// p50/p95/p99 submit→done latency; JobsRejected counts jobs no shard
// admitted, JobsForwarded jobs the overflow exchange rescued onto a
// non-home shard.
func serve(cfg serveConfig) Entry {
	// The serve runtimes carry the full observability stack (the sweep
	// runtimes deliberately do not add the flight recorder, keeping the
	// gated numbers comparable to the committed baseline): a sampler
	// goroutine reads the counters, latency histogram, and rolling
	// flight-window envelope every 500ms into the entry's Timeline.
	p := fl.NewPool(fl.WithShards(cfg.shards), fl.WithPoolWorkers(cfg.workers),
		fl.WithPoolMaxInFlight(cfg.maxInFlight),
		fl.WithShardRuntimeOptions(fl.WithFlightRecorder(0)))
	defer p.Shutdown()

	// A small tree (2^12-1 nodes) keeps one treesum job ~request-sized.
	const treeDepth, treeCut = 12, 8
	next := 0
	tree := buildTree(treeDepth, &next)
	kinds := makeServeKinds(tree, treeDepth, treeCut)
	batch := cfg.batch
	if batch < 1 {
		batch = 1
	}

	var (
		mu        sync.Mutex
		latencies []float64 // ms, completed jobs only
		wg        sync.WaitGroup
		rejected  int64
	)
	rng := cfg.seed | 1
	start := time.Now()

	var (
		timeline []TimelinePoint
		tlStop   = make(chan struct{})
		tlDone   = make(chan struct{})
	)
	if cfg.timeline {
		go func() {
			defer close(tlDone)
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tlStop:
					return
				case <-tick.C:
					timeline = append(timeline, samplePoint(p, start))
				}
			}
		}()
	}

	// The per-job handler: waits for its own job and records its latency,
	// like an HTTP handler goroutine writing the response.
	handle := func(j fl.PoolJob[int], want int) {
		defer wg.Done()
		v, err := j.WaitErr()
		if err != nil {
			fmt.Fprintln(os.Stderr, "runtimebench: serve job:", err)
			os.Exit(1)
		}
		if v != want {
			fmt.Fprintf(os.Stderr, "runtimebench: serve job = %d, want %d\n", v, want)
			os.Exit(1)
		}
		ms := float64(j.Latency()) / 1e6
		mu.Lock()
		latencies = append(latencies, ms)
		mu.Unlock()
	}

	fns := make([]func(*fl.W) int, 0, batch)
	wants := make([]int, 0, batch)
	dst := make([]fl.PoolJob[int], 0, batch)
	due := start
	for {
		rng = xorshift64(rng)
		// Exponential inter-arrival between events: -ln(U)·batch/rate, U
		// uniform in (0,1] — batch jobs per event keeps the offered job rate.
		u := (float64(rng>>11) + 1) / (1 << 53)
		due = due.Add(time.Duration(-math.Log(u) * float64(batch) / cfg.rate * float64(time.Second)))
		if due.Sub(start) >= cfg.dur {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if batch == 1 {
			rng = xorshift64(rng)
			k := kinds[rng%3]
			j, err := fl.PoolSubmit(p, k.fn)
			if err != nil {
				// ErrSaturated everywhere: every candidate shard refused.
				rejected++
				continue
			}
			wg.Add(1)
			go handle(j, k.want)
			continue
		}
		fns, wants, dst = fns[:0], wants[:0], dst[:0]
		for b := 0; b < batch; b++ {
			rng = xorshift64(rng)
			k := kinds[rng%3]
			fns = append(fns, k.fn)
			wants = append(wants, k.want)
		}
		var err error
		dst, err = fl.PoolSubmitAll(p, fns, dst)
		if err != nil && !errors.Is(err, fl.ErrSaturated) {
			fmt.Fprintln(os.Stderr, "runtimebench: serve batch:", err)
			os.Exit(1)
		}
		// Partial admission: the admitted prefix proceeds, the rest is shed.
		rejected += int64(batch - len(dst))
		for k := range dst {
			wg.Add(1)
			go handle(dst[k], wants[k])
		}
	}
	wg.Wait()
	if cfg.timeline {
		close(tlStop)
		<-tlDone
		// One closing sample captures the drained end state.
		timeline = append(timeline, samplePoint(p, start))
	}
	elapsed := time.Since(start).Seconds()

	e := Entry{
		Workload:      cfg.workload,
		Discipline:    p.Runtime(0).Discipline().String(),
		Steal:         p.Runtime(0).StealPolicy().String(),
		Workers:       cfg.workers,
		Shards:        p.Shards(),
		N:             len(latencies),
		DurationS:     elapsed,
		RateJobsSec:   cfg.rate,
		Throughput:    float64(len(latencies)) / elapsed,
		JobsDone:      int64(len(latencies)),
		JobsRejected:  rejected,
		JobsForwarded: p.Forwarded(),
		MaxInFlight:   cfg.maxInFlight,
		Timeline:      timeline,
	}
	if batch > 1 {
		e.BatchSize = batch
	}
	if len(latencies) > 0 {
		pq := stats.Percentiles(latencies, 50, 95, 99)
		e.P50LatencyMS, e.P95LatencyMS, e.P99LatencyMS = pq[0], pq[1], pq[2]
		e.MeanLatencyMS = stats.Summarize(latencies).Mean
	}
	return e
}

// kneeParams parameterizes the knee-finder: a geometric arrival-rate sweep
// that reruns the serve engine at rate·factor^i until the server stops
// sustaining the offered load.
type kneeParams struct {
	workers, maxInFlight, steps, batch, shards int
	perRate                                    time.Duration
	start, factor                              float64
	// A rate is sustained when the shed fraction stays at or under shedMax
	// AND p99 latency stays at or under p99MaxMS.
	shedMax, p99MaxMS float64
	seed              uint64
}

// kneeFind sweeps arrival rates geometrically and reports the knee: the
// highest offered rate the server sustained, and the throughput measured
// there. Each rate's full serve entry (shed, percentiles) lands in the
// output so the whole rate-response curve is recorded, not just the knee.
func kneeFind(p kneeParams) (entries []Entry, kneeRate, kneeThroughput float64) {
	rate := p.start
	for i := 0; i < p.steps; i++ {
		e := serve(serveConfig{
			workload: "knee", workers: p.workers, dur: p.perRate, rate: rate,
			maxInFlight: p.maxInFlight, seed: p.seed + uint64(i)*97, batch: p.batch,
			shards: p.shards,
		})
		offered := e.JobsDone + e.JobsRejected
		shed := 0.0
		if offered > 0 {
			shed = float64(e.JobsRejected) / float64(offered)
		}
		e.Sustained = shed <= p.shedMax && e.P99LatencyMS <= p.p99MaxMS
		entries = append(entries, e)
		verdict := "sustained"
		if !e.Sustained {
			verdict = "knee crossed"
		}
		fmt.Printf("runtimebench: knee shards=%d rate=%.0f/s done=%d fwd=%d shed=%.3f p50=%.2fms p99=%.2fms → %s\n",
			p.shards, rate, e.JobsDone, e.JobsForwarded, shed, e.P50LatencyMS, e.P99LatencyMS, verdict)
		if !e.Sustained {
			break
		}
		kneeRate, kneeThroughput = rate, e.Throughput
		rate *= p.factor
	}
	if kneeRate == 0 {
		fmt.Println("runtimebench: knee: no rate sustained — server saturated below the sweep floor")
	} else {
		fmt.Printf("runtimebench: knee at %.0f jobs/s offered (%.0f jobs/s measured throughput)\n",
			kneeRate, kneeThroughput)
	}
	return entries, kneeRate, kneeThroughput
}
