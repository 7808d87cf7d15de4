package main

import (
	"fmt"
	"os"

	fl "futurelocality"
)

// topoCompare is the live locality check behind -scenario topo: fib and
// treesum at 4 workers on a synthetic 2x2 topology, once under
// random-single and once under hierarchical stealing, comparing the
// cross-domain steal fraction. It returns the per-run entries plus the
// failure messages (empty = pass). On runs where random-single recorded no
// steals — a one-CPU box parallelizes nothing — the comparison is skipped
// rather than failed, since there is no locality to improve on.
func topoCompare(fibN, cutoff, treeDepth, treeCut, reps int) (entries []Entry, failures []string) {
	const workers = 4
	topo, err := fl.SyntheticTopology("2x2")
	if err != nil {
		fmt.Fprintln(os.Stderr, "runtimebench:", err)
		os.Exit(1)
	}
	fibWant := fibSeq(fibN)
	next := 0
	tree := buildTree(treeDepth, &next)
	treeWant := treeSumSeq(tree)

	workloads := []struct {
		name string
		run  func(*fl.Runtime, *fl.W) int
		n    int
		want int
	}{
		{"fib", func(rt *fl.Runtime, w *fl.W) int { return fib(rt, w, fibN, cutoff) }, fibN, fibWant},
		{"treesum", func(rt *fl.Runtime, w *fl.W) int { return treeSum(rt, w, tree, treeDepth, treeCut) }, treeDepth, treeWant},
	}
	frac := func(e Entry) float64 {
		if e.Steals == 0 {
			return 0
		}
		return float64(e.CrossSteals) / float64(e.Steals)
	}
	for _, wl := range workloads {
		rand := measure(wl.name, fl.ParentFirst, fl.RandomSingle, topo, workers, wl.n, reps, wl.run, wl.want)
		hier := measure(wl.name, fl.ParentFirst, fl.Hierarchical, topo, workers, wl.n, reps, wl.run, wl.want)
		entries = append(entries, rand, hier)
		if rand.Steals == 0 || rand.CrossSteals == 0 {
			fmt.Printf("runtimebench: topo %s: random-single recorded %d steals (%d cross) — nothing to improve on, comparison skipped\n",
				wl.name, rand.Steals, rand.CrossSteals)
			continue
		}
		rf, hf := frac(rand), frac(hier)
		fmt.Printf("runtimebench: topo %s: cross-domain fraction random-single=%.3f (%d/%d) hierarchical=%.3f (%d/%d)\n",
			wl.name, rf, rand.CrossSteals, rand.Steals, hf, hier.CrossSteals, hier.Steals)
		if hf >= rf {
			failures = append(failures, fmt.Sprintf(
				"%s: hierarchical cross-domain steal fraction %.3f is not below random-single's %.3f",
				wl.name, hf, rf))
		}
	}
	return entries, failures
}

// writeTopoDump writes the discovered host topology (and the synthetic one
// the topo scenario used) to path, for CI artifact upload.
func writeTopoDump(path string) {
	body := "host (sysfs-discovered, flat fallback):\n" + fl.DetectTopology().String()
	if synth, err := fl.SyntheticTopology("2x2"); err == nil {
		body += "\nscenario topo synthetic layout:\n" + synth.String()
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "runtimebench:", err)
		os.Exit(1)
	}
	fmt.Printf("runtimebench: wrote topology dump to %s\n", path)
}
