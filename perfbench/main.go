// Command perfbench is the repository benchmark. One run measures the three
// products of the repository against its public API and checks every
// output:
//
//   - forkjoin: closed-loop rounds of fib, treesum, quicksort and randstruct
//     on a 2-worker Runtime, against plain-Go twins of the same kernels;
//   - serve: an open loop of Poisson arrivals into a 2-shard Pool, at two
//     fixed rates and at a searched maximum sustainable rate;
//   - profile: closed-loop profiled randstruct runs, each analyzed into the
//     deviation and extra-miss verdict.
//
// Every run reports every metric, so every workload runs all three phases;
// the named workload's phase gets half of the measuring time and the other
// two a quarter each. Each phase runs in a process of its own, and the
// phases take turns in short slices over the whole run. With -trace 1 the
// run instead reports per-layer metrics: each phase alternates untraced
// work with work that has spans around the calls into each layer, and the
// gap between the two is the phase's tracing overhead. Spans are written as
// JSON lines under -out.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root with perfbench/run.sh.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	gort "runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"futurelocality/internal/stats"
	"futurelocality/internal/topology"
)

// setupReps is how many times a run builds its inputs and runtimes; setup_s
// is the median, and the last build is the one measured.
const setupReps = 3

// slices is how many turns each phase takes in a run.
const slices = 8

// maxSteal is the share of a slice's CPU time the hypervisor may steal
// before the slice counts as spoiled; maxExtra bounds the replacement
// slices, as a share of the run's measuring time.
const (
	maxSteal = 0.05
	maxExtra = 0.2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates a run's operation counts, correctness and metrics.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) set(name string, v float64, unit string) {
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one checked operation; a false ok marks the run incorrect.
func (o *outcome) op(ok bool, what string) {
	o.Attempted++
	if !ok {
		o.Failed++
		o.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", what)
	}
}

// logw receives the human-readable progress lines: standard output in the
// coordinating process, standard error in a phase process, whose standard
// output carries the protocol.
var logw io.Writer = os.Stdout

func main() { os.Exit(run()) }

func run() int {
	var names []string
	for _, ph := range phases {
		names = append(names, ph.name)
	}
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(names, ", "))
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measuring time of the run, seconds")
		traced   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		outDir   = flag.String("out", ".bench_build", "directory for the span files of a traced run")
		phaseArg = flag.String("phase", "", "internal: serve one phase to the coordinating process over stdin/stdout")
	)
	flag.Parse()
	if *phaseArg != "" {
		logw = os.Stderr
		return servePhase(*phaseArg, *seed, *traced == 1, filepath.Join(*outDir,
			fmt.Sprintf("spans-%s-seed%d-%s.jsonl", *workload, *seed, *phaseArg)))
	}
	weights := map[string]float64{}
	for _, n := range names {
		weights[n] = 1
	}
	if _, ok := weights[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	weights[*workload] = 2

	printHost()
	steal0 := stealTicks()
	if *traced == 1 {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	// Each phase runs in a process of its own, so no phase's heap (the
	// treesum tree above all) lengthens another's garbage collections.
	var procs []*phaseProc
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()
	o := &outcome{Correct: true, Metrics: map[string]metric{}}
	var setupS, rssMB float64
	for _, n := range names {
		p, rep, err := startPhase(n, os.Args[1:])
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", n, err)
			return 1
		}
		procs = append(procs, p)
		setupS += rep.SetupS
		fmt.Fprintln(logw, rep.Facts)
	}
	// The phases take turns in short slices, so each samples the host's
	// changing speed over the whole run instead of over one stretch of it.
	// A slice during which the hypervisor stole more than maxSteal of the
	// CPU time the machine was using measured a neighbour, not this code:
	// its phase runs another slice in its place while the run is within
	// maxExtra of its measuring time.
	clean := make([]int, len(procs))
	start := time.Now()
	limit := time.Duration(float64(*seconds) * (1 + maxExtra) * float64(time.Second))
	for k := 0; ; k++ {
		ran := false
		for i, p := range procs {
			if k >= slices && (clean[i] >= slices || time.Since(start) > limit) {
				continue
			}
			d := time.Duration(float64(*seconds) * weights[names[i]] / 4 / slices * float64(time.Second))
			rep, err := p.call(request{Op: "slice", D: d})
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", names[i], err)
				return 1
			}
			if rep.Clean {
				clean[i]++
			}
			ran = true
		}
		if !ran {
			break
		}
	}
	fmt.Fprintf(logw, "slices: %v clean of %d per phase, in %.1fs\n", clean, slices, time.Since(start).Seconds())
	for i, p := range procs {
		rep, err := p.call(request{Op: "report"})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", names[i], err)
			return 1
		}
		o.Correct = o.Correct && rep.Outcome.Correct
		o.Attempted += rep.Outcome.Attempted
		o.Failed += rep.Outcome.Failed
		for k, v := range rep.Outcome.Metrics {
			o.Metrics[k] = v
		}
		rssMB += rep.PeakRSSMB
	}
	if *traced == 0 {
		o.set("setup_s", setupS, "s")
		// The phase processes are resident together, so their peaks add.
		o.set("peak_rss_mb", rssMB, "MB")
	}
	fmt.Fprintf(logw, "host: hypervisor stole %.1f%% of the CPU time used during the run\n",
		100*stolen(steal0, stealTicks()))
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// request and reply are the lines a coordinating process and a phase
// process exchange, one JSON object per line.
type request struct {
	Op string        `json:"op"` // "slice" or "report"
	D  time.Duration `json:"d,omitempty"`
}

type reply struct {
	Err       string   `json:"err,omitempty"`
	SetupS    float64  `json:"setup_s,omitempty"`
	Facts     string   `json:"facts,omitempty"`
	Clean     bool     `json:"clean,omitempty"`
	Outcome   *outcome `json:"outcome,omitempty"`
	PeakRSSMB float64  `json:"peak_rss_mb,omitempty"`
}

// phaseProc is a running phase process.
type phaseProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startPhase starts this binary as the process of one phase, with the
// coordinating process's own arguments, and waits for its set-up.
func startPhase(name string, args []string) (*phaseProc, *reply, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, append(append([]string{}, args...), "-phase", name)...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	p := &phaseProc{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	p.out.Buffer(make([]byte, 1<<20), 1<<24)
	rep, err := p.read()
	if err != nil {
		p.stop()
		return nil, nil, err
	}
	return p, rep, nil
}

func (p *phaseProc) call(req request) (*reply, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if _, err := p.in.Write(append(b, '\n')); err != nil {
		return nil, fmt.Errorf("phase process: %w", err)
	}
	return p.read()
}

func (p *phaseProc) read() (*reply, error) {
	if !p.out.Scan() {
		if err := p.out.Err(); err != nil {
			return nil, fmt.Errorf("phase process: %w", err)
		}
		return nil, errors.New("phase process exited")
	}
	var rep reply
	if err := json.Unmarshal(p.out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("phase process: %w", err)
	}
	if rep.Err != "" {
		return nil, errors.New(rep.Err)
	}
	return &rep, nil
}

// stop closes the process's input, which ends it, and waits for it; a
// process still running after a grace period is killed.
func (p *phaseProc) stop() {
	p.in.Close()
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// servePhase is the body of a phase process: it sets the phase up, answers
// slice requests until asked for its report, and exits when its input
// closes. Spans of a traced run are written to spanPath.
func servePhase(name string, seed uint64, traced bool, spanPath string) int {
	enc := json.NewEncoder(os.Stdout)
	var spec *phaseSpec
	for i := range phases {
		if phases[i].name == name {
			spec = &phases[i]
		}
	}
	if spec == nil {
		enc.Encode(reply{Err: "unknown phase " + name})
		return 2
	}
	p, setupS, err := setUp(*spec, seed)
	if err != nil {
		enc.Encode(reply{Err: err.Error()})
		return 1
	}
	defer p.close()
	if err := enc.Encode(reply{SetupS: setupS, Facts: p.facts()}); err != nil {
		return 1
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	o := &outcome{Correct: true, Metrics: map[string]metric{}}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var req request
		if err := json.Unmarshal(in.Bytes(), &req); err != nil {
			enc.Encode(reply{Err: err.Error()})
			return 1
		}
		var rep reply
		switch req.Op {
		case "slice":
			before := stealTicks()
			p.slice(o, req.D, tr)
			steal := stolen(before, stealTicks())
			if tr != nil {
				steal = 0 // per-layer figures are reported from every slice
			}
			rep.Clean = steal <= maxSteal
			p.commit(steal)
		case "report":
			p.report(o, tr)
			rep.Outcome, rep.PeakRSSMB = o, peakRSSMB()
			fmt.Fprintf(logw, "%s: peak RSS %.1f MB\n", name, rep.PeakRSSMB)
			if tr != nil {
				if err := tr.write(spanPath); err != nil {
					rep = reply{Err: err.Error()}
				} else {
					fmt.Fprintf(logw, "spans: %d written to %s\n", len(tr.spans), spanPath)
				}
			}
		default:
			rep.Err = "unknown request " + req.Op
		}
		if err := enc.Encode(rep); err != nil || rep.Err != "" {
			return 1
		}
	}
	return 0
}

// phase is one of the three measured products, set up by its build
// function from the run's seed.
type phase interface {
	// slice measures for about d, adding to the phase's samples; tr is nil
	// in an untraced run.
	slice(o *outcome, d time.Duration, tr *tracer)
	// commit keeps the figures of the slice just run, with the share of
	// its CPU time the hypervisor stole.
	commit(steal float64)
	// report sets the phase's metrics from its quiet slices.
	report(o *outcome, tr *tracer)
	// facts describes the phase's configuration and working set.
	facts() string
	close()
}

type phaseSpec struct {
	name  string
	build func(seed uint64) (phase, error)
}

// phases are the workloads, in the order every run measures them.
var phases = []phaseSpec{
	{"forkjoin", func(seed uint64) (phase, error) { return newFJEnv(seed) }},
	{"serve", func(seed uint64) (phase, error) { return newServeEnv(seed) }},
	{"profile", func(seed uint64) (phase, error) { return newProfEnv(seed) }},
}

// setUp builds a phase setupReps times, each from a collected heap, and
// returns the last build with the median build time in seconds.
func setUp(ph phaseSpec, seed uint64) (phase, float64, error) {
	var (
		p     phase
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if p != nil {
			p.close()
		}
		gort.GC()
		t0 := time.Now()
		var err error
		if p, err = ph.build(seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return p, median(times), nil
}

// printHost prints the host facts the numbers depend on: CPUs, GOMAXPROCS
// and the cache levels sysfs reports for cpu0.
func printHost() {
	topo := topology.Detect()
	fmt.Fprintf(logw, "host: nproc=%d GOMAXPROCS=%d topology=%s llc_domains=%d\n",
		gort.NumCPU(), gort.GOMAXPROCS(0), topo.Source, topo.NumDomains())
	for _, lv := range cacheLevels() {
		fmt.Fprintln(logw, "host:", lv)
	}
	if topo.NumDomains() < 2 {
		fmt.Fprintln(logw, "host: cross-domain steals: single LLC: not measurable on this host")
	}
}

// cacheLevels describes cpu0's caches from sysfs, one line per level, or a
// single line saying they could not be read.
func cacheLevels() []string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []string
	for _, d := range dirs {
		read := func(f string) string {
			b, err := os.ReadFile(filepath.Join(d, f))
			if err != nil {
				return "?"
			}
			return strings.TrimSpace(string(b))
		}
		typ := read("type")
		if typ == "Instruction" {
			continue
		}
		shared := read("shared_cpu_list")
		scope := "private"
		if strings.ContainsAny(shared, ",-") {
			scope = "shared by cpu" + shared
		}
		out = append(out, fmt.Sprintf("L%s %s %s, %s", read("level"), strings.ToLower(typ), read("size"), scope))
	}
	if len(out) == 0 {
		out = append(out, "cache layout: not readable from sysfs")
	}
	return out
}

// stealTicks returns the steal and busy ticks of /proc/stat's cpu line.
// Steal is time a hypervisor ran something else while this machine wanted
// to run; it slows every phase alike. Busy counts user, system, interrupt
// and steal time. Zeros when unreadable.
func stealTicks() [2]int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var t [2]int64
	for i, col := range []int{1, 2, 3, 6, 7, 8} {
		if col >= len(f) {
			break
		}
		n, _ := strconv.ParseInt(f[col], 10, 64)
		t[1] += n
		if i == 5 {
			t[0] = n
		}
	}
	return t
}

// stolen is the share of the busy time between two stealTicks readings
// that the hypervisor stole.
func stolen(a, b [2]int64) float64 {
	if b[1] <= a[1] {
		return 0
	}
	return float64(b[0]-a[0]) / float64(b[1]-a[1])
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// quiet returns the indexes of the samples (slices, serve windows and jobs,
// or profile cycles) a phase reports from, given the share of each sample's CPU
// time the hypervisor stole: the samples within maxSteal, or, when fewer
// than half are, the half it stole least from.
func quiet(steals []float64) []int {
	idx := make([]int, len(steals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steals[idx[a]] < steals[idx[b]] })
	n := 0
	for n < len(idx) && steals[idx[n]] <= maxSteal {
		n++
	}
	return idx[:max(n, (len(idx)+1)/2)]
}

// sliceFigures holds a phase's figures, one set per slice, with the share
// of the slice's CPU time the hypervisor stole.
type sliceFigures struct {
	pending []float64
	steals  []float64
	figs    [][]float64
}

// add records the figures of the slice just run.
func (f *sliceFigures) add(figs ...float64) { f.pending = figs }

func (f *sliceFigures) commit(steal float64) {
	if f.pending != nil {
		f.steals = append(f.steals, steal)
		f.figs = append(f.figs, f.pending)
		f.pending = nil
	}
}

// median is the median of figure i over the quiet slices. A median over
// slices is not moved by slowness confined to fewer than half of them.
func (f *sliceFigures) median(i int) float64 {
	var xs []float64
	for _, k := range quiet(f.steals) {
		xs = append(xs, f.figs[k][i])
	}
	return median(xs)
}

// String says how many slices the figures come from.
func (f *sliceFigures) String() string {
	return fmt.Sprintf("%d of %d slices", len(quiet(f.steals)), len(f.steals))
}

// median is the median of xs, or 0 for an empty xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 50)
}

// pcts returns the requested percentiles of xs, or zeros for an empty xs.
func pcts(xs []float64, ps ...float64) []float64 {
	if len(xs) == 0 {
		return make([]float64, len(ps))
	}
	return stats.Percentiles(xs, ps...)
}
