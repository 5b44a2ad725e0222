// Command bench is this repository's benchmark: four workloads that
// stress different layers of the stack, measured from outside through
// the layers' public functions, with every operation checked against
// the reference interpreter. README.md describes the workloads, the
// metrics and how to compare two commits; BENCHMARK.json at the root of
// the repository is the contract the numbers are gated with.
//
//	bash bench/run.sh                         every workload, untraced then traced
//	bash bench/run.sh -workload serve -trace 0
//	bash bench/run.sh -list
//	bash bench/run.sh -sets 2                 the repeatability check
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(allWorkloads, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed for kernel order, iteration counts, key draws and arrival times")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per run")
	trace := fs.String("trace", "both", "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); both")
	out := fs.String("out", "", "directory for span and result files (default: a fresh directory under the system's temporary directory)")
	list := fs.Bool("list", false, "print every metric and workload, then exit")
	contract := fs.Bool("contract", false, "print BENCHMARK.json as generated from the metric table, then exit")
	smoke := fs.Bool("smoke", false, "one tiny pass per window: a functional check, not a measurement")
	sets := fs.Int("sets", 1, "run everything this many times and compare the sets: exact metrics must agree bit for bit, timed ones within their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	if *contract {
		if err := printContract(stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	var modes []bool
	switch *trace {
	case "0", "false":
		modes = []bool{false}
	case "1", "true":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = allWorkloads
	} else if !slices.Contains(allWorkloads, *workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s, or all)\n", *workload, strings.Join(allWorkloads, ", "))
		return 2
	}
	if *seconds <= 0 || *sets < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -sets at least 1")
		return 2
	}
	if *out == "" {
		dir, err := os.MkdirTemp("", "bench-")
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		*out = dir
	}
	header(stdout, *seed)

	// One workload in one mode runs in this process and ends with the
	// result line: that is how the driver calls the benchmark.
	if len(names) == 1 && len(modes) == 1 && *sets == 1 {
		cfg := runConfig{workload: names[0], seed: *seed, seconds: *seconds, traced: modes[0], smoke: *smoke, outDir: *out}
		res, err := runWorkload(cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		printResult(stdout, res)
		if err := writeResultFile(*out, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, resultLine(res))
		if res.Failed > 0 {
			return 1
		}
		return 0
	}

	// Otherwise each run is a child process, so that one workload's
	// peak memory and warmed caches do not leak into the next.
	code := 0
	var all [][]*result
	for set := 0; set < *sets; set++ {
		var results []*result
		for _, name := range names {
			for _, traced := range modes {
				dir := filepath.Join(*out, fmt.Sprintf("set%d", set+1))
				res, err := runChild(name, *seed, *seconds, traced, *smoke, dir, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
					return 1
				}
				if res.Failed > 0 {
					code = 1
				}
				results = append(results, res)
			}
		}
		all = append(all, results)
	}
	if *sets > 1 && !compareSets(stdout, all) {
		code = 1
	}
	return code
}

// runChild runs one workload in one mode as a child process of the
// same binary, relays its report, and reads its result file back.
func runChild(name string, seed uint64, seconds float64, traced, smoke bool, dir string, stdout, stderr io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "0"
	if traced {
		mode = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", mode, "-out", dir}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Relay the child's report without its own header and result line.
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "bench: ") && !strings.HasPrefix(line, `{"`) {
			fmt.Fprintln(stdout, line)
		}
	}
	werr := cmd.Wait() // a non-zero exit with a result file is a run with failed ops
	data, err := os.ReadFile(filepath.Join(dir, resultFileName(name, traced)))
	if err != nil {
		if werr != nil {
			return nil, werr
		}
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("reading the child's result: %w", err)
	}
	return &res, nil
}

// compareSets checks the repeatability the acceptance criteria ask for:
// between the first set and every later one, each exact metric and each
// digest is identical, and each end-to-end metric's relative difference
// stays within its bound. It prints the differences beside the bounds.
func compareSets(w io.Writer, sets [][]*result) bool {
	ok := true
	fmt.Fprintf(w, "== comparing %d sets (relative difference against set 1, beside the bound)\n", len(sets))
	for si := 1; si < len(sets); si++ {
		for ri, a := range sets[0] {
			b := sets[si][ri]
			if a.Digest != b.Digest {
				ok = false
				fmt.Fprintf(w, "  %-10s sim_digest differs: set 1 %s, set %d %s\n", a.Workload, a.Digest, si+1, b.Digest)
			}
			for _, d := range metricTable {
				if !d.measuredOn(a.Workload) {
					continue
				}
				va, vb := a.value(d.Name), b.value(d.Name)
				switch {
				case d.Exact && va != vb:
					ok = false
					fmt.Fprintf(w, "  %-10s %-32s EXACT METRIC MOVED: %v -> %v\n", a.Workload, d.Name, va, vb)
				case d.E2E && !a.Traced:
					diff := 0.0
					if va != 0 {
						diff = math.Abs(vb-va) / math.Abs(va)
					}
					verdict := "ok"
					if diff > d.Bound {
						verdict, ok = "EXCEEDS BOUND", false
					}
					fmt.Fprintf(w, "  %-10s %-12s set1=%-12.6g set%d=%-12.6g diff=%5.1f%% bound=%4.0f%% %s\n",
						a.Workload, d.Name, va, si+1, vb, 100*diff, 100*d.Bound, verdict)
				}
			}
		}
	}
	return ok
}

// commitID is the VCS revision the binary was built from, when the
// build recorded one (a plain checkout without git records none).
func commitID() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
