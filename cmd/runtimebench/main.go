// Command runtimebench runs the runtime's headline workloads — fib, a
// stream pipeline, a pointer-chasing tree sum, a dense matmul, a
// future-parallel quicksort, and a seeded random structured computation
// (the runtime analogues of the internal/graphs families) — under every
// (fork discipline × steal policy) pair and writes the results as JSON, so
// CI can accumulate a per-commit performance trajectory
// (BENCH_runtime.json). Each entry records the median wall time over -reps
// runs (both as ms and ns/op), the allocations per run, and the scheduler
// counters that proxy the paper's locality story.
//
// With -baseline it also acts as CI's regression gate: every entry is
// compared against the same (workload, discipline, steal) entry of the
// baseline file, and the process exits nonzero when any ns/op regresses by
// more than -max-regress percent.
//
// Usage:
//
//	runtimebench -o BENCH_runtime.json
//	runtimebench -fib 30 -items 100000 -workers 8 -reps 5
//	runtimebench -baseline BENCH_runtime.json -o BENCH_runtime.json -max-regress 25
//	runtimebench -scenario knee -shards 2 -append -o BENCH_runtime.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	gort "runtime"
	"time"

	fl "futurelocality"
)

// Entry is one benchmark measurement: a throughput sweep entry (workloads ×
// disciplines × steal policies) or, for Workload "serve", one job-server
// latency run (the serve-only fields are populated and the per-op fields
// stay zero; serve entries are never regression-gated — open-loop latency
// under CI background load is too noisy for a hard limit).
type Entry struct {
	Workload   string  `json:"workload"`
	Discipline string  `json:"discipline"`
	Steal      string  `json:"steal"`
	Workers    int     `json:"workers"`
	N          int     `json:"n"`
	MedianMS   float64 `json:"median_ms"`
	NsPerOp    int64   `json:"ns_per_op"`
	// BestNs is the fastest rep. Minima, not averages, are what a gate can
	// trust on shared hardware: interference only ever adds time.
	BestNs int64 `json:"best_ns_per_op"`
	// BestRatio is the gated metric: min over reps of the rep's wall time
	// divided by the calibration kernel timed immediately around that rep.
	// Normalizing per rep cancels both machine speed (a committed baseline
	// gates CI runners of a different class) and bursty background load
	// (a burst slows the rep and its adjacent calibration alike).
	BestRatio float64 `json:"best_ratio"`
	AllocsOp  uint64  `json:"allocs_per_op"`
	Reps      int     `json:"reps"`
	Tasks     int64   `json:"tasks"`
	Steals    int64   `json:"steals"`
	Inline    int64   `json:"inline_touches"`
	Helped    int64   `json:"helped_tasks"`
	Blocked   int64   `json:"blocked_touches"`
	// Topology names the injected cache topology ("" = host-detected) and
	// the locality fields split the steals by whether the thief crossed an
	// LLC-domain boundary. Entries with a topology carry a distinct gate
	// key, so they never match a host-topology baseline entry.
	Topology    string `json:"topology,omitempty"`
	IntraSteals int64  `json:"intra_domain_steals,omitempty"`
	CrossSteals int64  `json:"cross_domain_steals,omitempty"`

	// Cache-cost fields (-cachemodel): the workload run once more under the
	// profiler and its reconstructed DAG replayed through the footprint
	// cache model under this entry's own (discipline × steal) pair.
	// SimExtraMisses is the mean simulated additional misses over the
	// replay trials vs the sequential baseline SimSeqMisses;
	// SimExtraMissesMax is the worst trial; SimMissEnvelope is the
	// C·(1+P·T∞²) bound when the entry's policy pair and class grant one
	// (only future-first × random-single entries carry it). Never
	// regression-gated — the gate key ignores them.
	CacheModel        string  `json:"cache_model,omitempty"`
	SimSeqMisses      int64   `json:"sim_seq_misses,omitempty"`
	SimExtraMisses    float64 `json:"sim_extra_misses,omitempty"`
	SimExtraMissesMax int64   `json:"sim_extra_misses_max,omitempty"`
	SimMissEnvelope   int64   `json:"sim_miss_envelope,omitempty"`

	// Serve-scenario fields (Workload "serve" only): open-loop arrival rate
	// offered and sustained, admission outcomes, and the completed jobs'
	// submit→done wall-latency percentiles.
	DurationS     float64 `json:"duration_s,omitempty"`
	RateJobsSec   float64 `json:"rate_jobs_sec,omitempty"`
	Throughput    float64 `json:"throughput_jobs_sec,omitempty"`
	JobsDone      int64   `json:"jobs_done,omitempty"`
	JobsRejected  int64   `json:"jobs_rejected,omitempty"`
	MaxInFlight   int     `json:"max_in_flight,omitempty"`
	P50LatencyMS  float64 `json:"p50_latency_ms,omitempty"`
	P95LatencyMS  float64 `json:"p95_latency_ms,omitempty"`
	P99LatencyMS  float64 `json:"p99_latency_ms,omitempty"`
	MeanLatencyMS float64 `json:"mean_latency_ms,omitempty"`
	// Shards is the serve/knee pool's member-runtime count (1 = a single
	// runtime serving jobs). JobsForwarded counts jobs the pool's router
	// admitted on a non-home shard after the placed shard refused — overflow
	// the exchange converted from would-be sheds.
	Shards        int   `json:"shards,omitempty"`
	JobsForwarded int64 `json:"jobs_forwarded,omitempty"`
	// BatchSize is the jobs-per-SubmitAll batching of the arrival loop
	// (0 or 1: one Submit per arrival). Sustained marks a knee-sweep rate
	// the server held: shed fraction and p99 both under their thresholds.
	BatchSize int  `json:"batch_size,omitempty"`
	Sustained bool `json:"sustained,omitempty"`
	// Timeline is the serve run's periodic telemetry samples (one every
	// 500ms): the live view of throughput, shedding, and the rolling
	// flight-window envelope as load evolves. Never regression-gated.
	Timeline []TimelinePoint `json:"timeline,omitempty"`
}

// Output is the file schema.
type Output struct {
	GoMaxProcs int `json:"gomaxprocs"`
	// CalibrationNs is the best-of-reps time of a fixed sequential kernel
	// measured in the same process. The regression gate compares
	// calibration-normalized ratios, so a committed baseline stays
	// comparable across machines of different speeds (and under sustained
	// background load, which slows the calibration by the same factor).
	CalibrationNs int64   `json:"calibration_ns"`
	Entries       []Entry `json:"entries"`
	// Knees records one knee summary (-scenario knee) per (shards × workers)
	// configuration: the highest offered arrival rate the server sustained
	// (shed fraction and p99 latency both under their thresholds across the
	// geometric sweep) and the throughput measured at that rate. The file
	// accumulates the sharded scaling curve, and each configuration gates
	// only against its own baseline key.
	Knees []KneeRecord `json:"knees,omitempty"`
}

// KneeRecord is one (shards × workers) knee measurement: a pool of Shards
// domain-aligned runtimes behind the job router (1 = a single runtime
// serving jobs).
type KneeRecord struct {
	Shards      int     `json:"shards"`
	Workers     int     `json:"workers"`
	RateJobsSec float64 `json:"knee_rate_jobs_sec"`
	Throughput  float64 `json:"knee_throughput_jobs_sec"`
}

func main() {
	var (
		out        = flag.String("o", "BENCH_runtime.json", "output path (- for stdout)")
		scenario   = flag.String("scenario", "all", "what to run: all, sweep (workload × policy sweep), serve (job-server latency), knee (arrival-rate sweep to the throughput knee), topo (hierarchical vs random-single cross-domain comparison on a synthetic 2x2)")
		topoSpec   = flag.String("topology", "", "sweep: cache topology to inject as a synthetic DxC spec (e.g. 2x2); empty = host hierarchy from sysfs")
		topoDump   = flag.String("topodump", "", "topo: also write the discovered host topology and the synthetic layout to this file (CI artifact)")
		duration   = flag.Duration("duration", 2*time.Second, "serve: open-loop arrival window")
		rate       = flag.Float64("rate", 150, "serve: offered arrival rate, jobs/sec")
		inflight   = flag.Int("maxinflight", 64, "serve/knee: admission cap (WithPoolMaxInFlight, split across shards)")
		shards     = flag.Int("shards", 1, "serve/knee: member runtimes of the job-server pool (1 = a single runtime serving jobs)")
		appendOut  = flag.Bool("append", false, "merge this run's entries and knee records into an existing -o file instead of replacing it (baseline regeneration)")
		serveSeed  = flag.Uint64("serveseed", 7, "serve/knee: arrival-process seed")
		batch      = flag.Int("batch", 1, "serve/knee: jobs per SubmitAll batch (1 = single Submit per arrival)")
		kneeStart  = flag.Float64("knee-start", 50, "knee: first offered rate of the geometric sweep, jobs/sec")
		kneeFactor = flag.Float64("knee-factor", 1.5, "knee: rate multiplier between sweep steps")
		kneeSteps  = flag.Int("knee-steps", 14, "knee: maximum sweep steps")
		kneeDur    = flag.Duration("knee-duration", time.Second, "knee: arrival window per rate")
		kneeShed   = flag.Float64("knee-shed-max", 0.01, "knee: max sustained shed fraction")
		kneeP99    = flag.Float64("knee-p99-max", 50, "knee: max sustained p99 latency, ms")
		kneeGate   = flag.Float64("knee-max-regress", 40, "knee: max allowed drop in knee throughput vs -baseline, percent (the sweep is geometric, so the gate is deliberately generous)")
		fibN       = flag.Int("fib", 32, "fib argument")
		cutoff     = flag.Int("cutoff", 16, "fib sequential cutoff")
		items      = flag.Int("items", 200000, "pipeline items")
		treeDepth  = flag.Int("tree", 20, "tree-sum depth (2^depth-1 nodes)")
		treeCut    = flag.Int("treecut", 10, "tree-sum sequential cutoff depth")
		dim        = flag.Int("dim", 192, "matmul dimension")
		qsortN     = flag.Int("qsort", 200000, "quicksort input length")
		qsortCut   = flag.Int("qsortcut", 4096, "quicksort sequential cutoff")
		rsDepth    = flag.Int("rsdepth", 10, "randstruct recursion depth")
		rsSeed     = flag.Uint64("rsseed", 42, "randstruct shape seed")
		cacheSpec  = flag.String("cachemodel", "", "sweep: also record simulated cache-cost fields per entry, spec \"C[,policy][,w=N][,llc=N]\" (e.g. 64,lru); adds one profiled run per entry")
		workers    = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		reps       = flag.Int("reps", 7, "repetitions per entry (median reported, best gated)")
		baseline   = flag.String("baseline", "", "baseline BENCH_runtime.json to gate against (read before -o is written)")
		maxRegress = flag.Float64("max-regress", 25, "max allowed ns/op regression vs -baseline, percent")
	)
	flag.Parse()

	// Read the baseline up front: CI points -baseline and -o at the same
	// committed path.
	var base Output
	haveBase := false
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "runtimebench: baseline:", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintln(os.Stderr, "runtimebench: baseline:", err)
			os.Exit(1)
		}
		haveBase = true
	}

	if *cacheSpec != "" {
		var err error
		if simModel, err = fl.ParseCacheModel(*cacheSpec); err != nil {
			fmt.Fprintln(os.Stderr, "runtimebench:", err)
			os.Exit(1)
		}
	}

	wk := *workers
	if wk <= 0 {
		wk = gort.GOMAXPROCS(0)
	}
	runSweep := *scenario == "all" || *scenario == "sweep"
	runServe := *scenario == "all" || *scenario == "serve"
	runKnee := *scenario == "knee"
	runTopo := *scenario == "topo"
	if !runSweep && !runServe && !runKnee && !runTopo {
		fmt.Fprintf(os.Stderr, "runtimebench: unknown -scenario %q (want all, sweep, serve, knee, or topo)\n", *scenario)
		os.Exit(1)
	}
	var topo *fl.Topology
	if *topoSpec != "" {
		var err error
		if topo, err = fl.SyntheticTopology(*topoSpec); err != nil {
			fmt.Fprintln(os.Stderr, "runtimebench:", err)
			os.Exit(1)
		}
	}

	o := Output{GoMaxProcs: gort.GOMAXPROCS(0), CalibrationNs: calOnce()}
	if runSweep {
		o.Entries = append(o.Entries, sweep(wk, *reps, sweepParams{
			fibN: *fibN, cutoff: *cutoff, items: *items,
			treeDepth: *treeDepth, treeCut: *treeCut, dim: *dim,
			qsortN: *qsortN, qsortCut: *qsortCut,
			rsDepth: *rsDepth, rsSeed: *rsSeed,
			topo: topo,
		})...)
	}
	if runServe {
		o.Entries = append(o.Entries, serve(serveConfig{
			workload: "serve", workers: wk, dur: *duration, rate: *rate,
			maxInFlight: *inflight, seed: *serveSeed, batch: *batch, timeline: true,
			shards: *shards,
		}))
	}
	if runKnee {
		entries, kneeRate, kneeThroughput := kneeFind(kneeParams{
			workers: wk, maxInFlight: *inflight, steps: *kneeSteps, batch: *batch,
			perRate: *kneeDur, start: *kneeStart, factor: *kneeFactor,
			shedMax: *kneeShed, p99MaxMS: *kneeP99, seed: *serveSeed,
			shards: *shards,
		})
		o.Entries = append(o.Entries, entries...)
		o.Knees = append(o.Knees, KneeRecord{
			Shards: *shards, Workers: wk, RateJobsSec: kneeRate, Throughput: kneeThroughput,
		})
	}
	var topoFailures []string
	if runTopo {
		// The comparison sizes down: 4 workers on a 2-domain layout is the
		// acceptance shape, and small-but-steal-heavy workloads keep the
		// scenario CI-cheap.
		entries, failures := topoCompare(min(*fibN, 28), *cutoff, min(*treeDepth, 16), min(*treeCut, 8), *reps)
		o.Entries = append(o.Entries, entries...)
		topoFailures = failures
		if *topoDump != "" {
			writeTopoDump(*topoDump)
		}
	}
	writeAndGate(o, *out, *appendOut, base, haveBase, *maxRegress, *kneeGate)
	if len(topoFailures) > 0 {
		for _, f := range topoFailures {
			fmt.Fprintln(os.Stderr, "runtimebench: topo FAIL:", f)
		}
		os.Exit(1)
	}
}
