// Command benchtab regenerates the paper's tables and figures on the
// simulated machine and prints them as text or Markdown.
//
// Usage:
//
//	benchtab -list                 # show available experiment ids
//	benchtab fig3 table2           # run selected experiments
//	benchtab -all                  # run everything (several minutes)
//	benchtab -all -md -o EXPERIMENTS.md
//	benchtab -j 8 -results BENCH_results.json fig3
//	benchtab -compare -results BENCH_results.json fig3
//
// -results records per-experiment wall time and simulated cycles as
// JSON. -compare additionally runs each experiment twice — first with
// the optimizations disabled (serial engine, no compile cache, slow
// interpreter loop), then with the defaults — verifies the two runs
// produce byte-identical tables, and records the speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/isolation"
	"repro/internal/report"
	"repro/internal/rt"
	"repro/internal/sfi"
	"repro/internal/telemetry"
)

// benchResult is one experiment's entry in the -results JSON file.
type benchResult struct {
	ID          string  `json:"id"`
	Tier        string  `json:"tier"`
	WallSeconds float64 `json:"wall_seconds"`
	SimCycles   float64 `json:"sim_cycles"`

	// Filled only under -compare.
	BaselineWallSeconds float64 `json:"baseline_wall_seconds,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
}

// historyRecord is one appended line of the -history JSONL file: a
// timestamped snapshot of a whole benchtab run, which tools/benchdiff.sh
// diffs against the previous line.
type historyRecord struct {
	Time    string        `json:"time"`
	Tier    string        `json:"tier"`
	Results []benchResult `json:"results"`
}

// runOnce executes one experiment under o from a cold compile cache and
// returns its table plus the measured wall seconds and simulated cycles.
func runOnce(e exp.Experiment, o exp.Options) (t *report.Table, wall, cycles float64, err error) {
	rt.ResetModuleCache()
	exp.TakeSimCycles()
	start := time.Now()
	t, err = e.Run(o)
	if err != nil {
		return nil, 0, 0, err
	}
	return t, time.Since(start).Seconds(), exp.TakeSimCycles(), nil
}

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	all := flag.Bool("all", false, "run every experiment")
	md := flag.Bool("md", false, "emit Markdown instead of text tables")
	out := flag.String("o", "", "write output to a file instead of stdout")
	jobs := flag.Int("j", 0, "experiment engine parallelism (0 = NumCPU)")
	results := flag.String("results", "", "write per-experiment timings to this JSON file")
	history := flag.String("history", "", "append a timestamped record of this run to this JSONL file")
	compare := flag.Bool("compare", false, "also time each experiment with optimizations disabled and record the speedup")
	tierFlag := flag.String("tier", "fused", "execution tier: slow, fast, or fused")
	schemeFlag := flag.String("scheme", "", "transition scheme for every experiment (default, zerocost, onestack, trampoline)")
	hardenFlag := flag.String("harden", "none", "Spectre hardening for every experiment (none, swivel-sfi, swivel-cet, deterministic)")
	tele := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "benchtab: -j %d: parallelism must be >= 1 (or 0 for NumCPU)\n", *jobs)
		os.Exit(2)
	}
	tier, err := cpu.ParseTier(*tierFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: -tier %s: %v\n", *tierFlag, err)
		os.Exit(2)
	}
	scheme, err := isolation.ParseScheme(*schemeFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: -scheme %s: %v\n", *schemeFlag, err)
		os.Exit(2)
	}
	harden, err := sfi.ParseHarden(*hardenFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: -harden %s: %v\n", *hardenFlag, err)
		os.Exit(2)
	}
	opts := exp.Options{Tier: tier, Scheme: scheme, Harden: harden, Jobs: *jobs}
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []exp.Experiment
	if *all {
		selected = exp.All()
	} else {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "benchtab: pass experiment ids, -all, or -list")
			os.Exit(2)
		}
		for _, id := range flag.Args() {
			e, ok := exp.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	if *md {
		fmt.Fprintf(w, "# Reproduced evaluation\n\nGenerated by `benchtab -all -md` at %s.\n\n", time.Now().Format(time.RFC3339))
	}
	// Optimized legs run first, back-to-back, so every recorded
	// wall_seconds sees comparable machine state; the (much longer)
	// -compare baseline legs follow and only feed the indicative
	// baseline_wall_seconds/speedup columns.
	var recorded []benchResult
	optText := make([]string, len(selected))
	for i, e := range selected {
		var r benchResult
		r.ID = e.ID
		r.Tier = tier.String()

		t, wall, cycles, err := runOnce(e, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		r.WallSeconds = wall
		r.SimCycles = cycles
		optText[i] = t.Text()

		if *md {
			fmt.Fprint(w, t.Markdown())
		} else {
			fmt.Fprint(w, t.Text())
			fmt.Fprintln(w)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.2fs]\n", e.ID, wall)
		recorded = append(recorded, r)
	}
	if *compare {
		// Baseline legs: serial engine, no compile cache, slow
		// interpreter loop — the pre-optimization configuration.
		base := opts
		base.Jobs, base.Tier = 1, cpu.TierSlow
		rt.SetModuleCacheEnabled(false)
		for i, e := range selected {
			t, wall, _, err := runOnce(e, base)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %s (baseline) failed: %v\n", e.ID, err)
				os.Exit(1)
			}
			if t.Text() != optText[i] {
				fmt.Fprintf(os.Stderr, "benchtab: %s: optimized table differs from baseline table\n--- baseline ---\n%s\n--- optimized ---\n%s", e.ID, t.Text(), optText[i])
				os.Exit(1)
			}
			recorded[i].BaselineWallSeconds = wall
			recorded[i].Speedup = wall / recorded[i].WallSeconds
			fmt.Fprintf(os.Stderr, "[%s baseline %.2fs, speedup %.2fx, tables identical]\n", e.ID, wall, recorded[i].Speedup)
		}
		rt.SetModuleCacheEnabled(true)
	}

	if *results != "" {
		data, err := json.MarshalIndent(recorded, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*results, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[wrote %s]\n", *results)
	}
	if *history != "" {
		rec := historyRecord{
			Time:    time.Now().UTC().Format(time.RFC3339),
			Tier:    tier.String(),
			Results: recorded,
		}
		line, err := json.Marshal(rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		f, err := os.OpenFile(*history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "[appended to %s]\n", *history)
	}
	if err := tele.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}
