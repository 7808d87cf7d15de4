package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// gateNs extracts the gated ns/op from an entry: best-of-reps when
// present, falling back to the median fields for files written by older
// schemas.
func gateNs(e Entry) int64 {
	if e.BestNs > 0 {
		return e.BestNs
	}
	if e.NsPerOp > 0 {
		return e.NsPerOp
	}
	return int64(e.MedianMS * 1e6)
}

// gateMetric extracts an entry's comparable cost: the calibrated ratio
// when the file carries one, raw best/median ns otherwise (older schemas).
// comparable reports whether the two entries use the same units.
func gateMetric(e, other Entry) (v float64, calibrated bool) {
	if e.BestRatio > 0 && other.BestRatio > 0 {
		return e.BestRatio, true
	}
	return float64(gateNs(e)), false
}

// entryKey identifies a scenario across runs: workload × discipline ×
// steal policy, plus the injected topology when one was set (files from the
// pre-steal schema have Steal == "", which simply never matches a current
// key — those entries gate nothing).
func entryKey(e Entry) string {
	k := e.Workload + "/" + e.Discipline + "/" + e.Steal
	if e.Topology != "" {
		k += "/" + e.Topology
	}
	if e.Shards > 0 {
		k += fmt.Sprintf("/shards=%d", e.Shards)
	}
	return k
}

// checkRegression compares cur against base entry-by-entry (keyed on
// workload × discipline × steal) and returns the list of entries that
// regressed by more than maxRegressPct percent. When both files carry
// per-rep calibrated ratios the comparison is in those units — portable
// across machine speeds and robust to background load; otherwise raw ns.
func checkRegression(base, cur Output, maxRegressPct float64) []string {
	byKey := make(map[string]Entry)
	for _, e := range base.Entries {
		byKey[entryKey(e)] = e
	}
	var failures []string
	for _, e := range cur.Entries {
		if e.Workload == "serve" || e.Workload == "knee" {
			// Open-loop latency entries are a trajectory, not a per-entry
			// gate: CI background load moves tail latency far more than any
			// real regression would, so serve and knee entries are recorded
			// but never fail the build here (each knee configuration has its
			// own whole-sweep gate on its KneeRecord throughput).
			continue
		}
		b, ok := byKey[entryKey(e)]
		if !ok {
			continue // new scenario: no baseline yet
		}
		eV, calibrated := gateMetric(e, b)
		bV, _ := gateMetric(b, e)
		limit := bV * (1 + maxRegressPct/100)
		if eV > limit {
			unit := "ns/op"
			if calibrated {
				unit = "×cal"
			}
			failures = append(failures, fmt.Sprintf(
				"%s: best %.4g %s vs baseline best %.4g %s, limit +%.0f%%",
				entryKey(e), eV, unit, bV, unit, maxRegressPct))
		}
	}
	return failures
}

// mergeOutput folds a fresh run into an existing output file (-append):
// fresh entries replace same-key existing entries (knee entries carry
// shards in their key, so a sharded knee rerun replaces only its own
// configuration), and knee records upsert by (shards × workers) — so a
// sharded knee run extends the committed baseline without discarding the
// sweep entries recorded by the main run.
func mergeOutput(existing, fresh Output) Output {
	out := existing
	produced := make(map[string]bool, len(fresh.Entries))
	for _, e := range fresh.Entries {
		produced[entryKey(e)] = true
	}
	var kept []Entry
	for _, e := range existing.Entries {
		if !produced[entryKey(e)] {
			kept = append(kept, e)
		}
	}
	out.Entries = append(kept, fresh.Entries...)
	for _, r := range fresh.Knees {
		replaced := false
		for i, b := range out.Knees {
			if b.Shards == r.Shards && b.Workers == r.Workers {
				out.Knees[i] = r
				replaced = true
				break
			}
		}
		if !replaced {
			out.Knees = append(out.Knees, r)
		}
	}
	return out
}

// writeAndGate writes the output file (merging into an existing one under
// -append) and applies the regression gates against the baseline, if one
// was given: the per-entry calibrated-ratio gate over the sweep entries and
// a per-(shards × workers) gate over this run's knee records. A knee configuration with no matching
// baseline key is recorded but never gated — new axes enter the file one
// run before they start gating.
func writeAndGate(o Output, out string, doAppend bool, base Output, haveBase bool, maxRegress, kneeRegress float64) {
	final := o
	if doAppend && out != "-" {
		if raw, err := os.ReadFile(out); err == nil {
			var existing Output
			if err := json.Unmarshal(raw, &existing); err != nil {
				fmt.Fprintln(os.Stderr, "runtimebench: -append:", err)
				os.Exit(1)
			}
			final = mergeOutput(existing, o)
		}
	}
	enc, err := json.MarshalIndent(final, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "runtimebench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "runtimebench:", err)
			os.Exit(1)
		}
		fmt.Printf("runtimebench: wrote %d entries to %s\n", len(final.Entries), out)
	}

	if haveBase {
		if failures := checkRegression(base, o, maxRegress); len(failures) > 0 {
			fmt.Fprintln(os.Stderr, "runtimebench: ns/op regression vs baseline:")
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "  "+f)
			}
			os.Exit(1)
		}
		fmt.Printf("runtimebench: no entry regressed more than %.0f%% vs baseline\n", maxRegress)
		for _, r := range o.Knees {
			var b *KneeRecord
			for i := range base.Knees {
				if base.Knees[i].Shards == r.Shards && base.Knees[i].Workers == r.Workers {
					b = &base.Knees[i]
					break
				}
			}
			if b == nil || b.Throughput <= 0 || r.Throughput <= 0 {
				fmt.Printf("runtimebench: no baseline knee for shards=%d workers=%d — recorded, not gated\n",
					r.Shards, r.Workers)
				continue
			}
			limit := b.Throughput * (1 - kneeRegress/100)
			if r.Throughput < limit {
				fmt.Fprintf(os.Stderr,
					"runtimebench: knee regression (shards=%d workers=%d): %.0f jobs/s vs baseline %.0f jobs/s (limit -%.0f%%)\n",
					r.Shards, r.Workers, r.Throughput, b.Throughput, kneeRegress)
				os.Exit(1)
			}
			fmt.Printf("runtimebench: knee (shards=%d workers=%d) %.0f jobs/s holds vs baseline %.0f jobs/s (limit -%.0f%%)\n",
				r.Shards, r.Workers, r.Throughput, b.Throughput, kneeRegress)
		}
	}
}
