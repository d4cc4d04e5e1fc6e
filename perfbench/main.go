// Command perfbench is the repository's benchmark: it runs one named
// workload through the system's public entry points, checks every
// response, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as the last line of its output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload sim-kv --seed 1 --seconds 20 --trace 0
//
// METRICS.md describes the workloads and what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	errs      []string
}

// runner runs one workload: seed draws its inputs, seconds scales its
// measured window, trace selects the traced run, and span files go to out.
type runner func(seed int64, seconds int, trace bool, out string) (*report, error)

// workloads maps each workload name to its runner.
var workloads = map[string]runner{
	simKV.name:        simRunner(simKV),
	simKVOrdered.name: simRunner(simKVOrdered),
	simKVLossy.name:   simRunner(simKVLossy),
	simKVCrash.name:   simRunner(simKVCrash),
	"net-kv":          runNetWorkload,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-node" {
		runNodeMode(os.Args[2:])
		return
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "run length; scales the measured window")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	abs, err := filepath.Abs(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(*seed, *seconds, *trace == 1, abs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		for _, e := range rep.errs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
		fmt.Fprintln(os.Stderr, "perfbench: correctness checks failed; no metrics reported")
		os.Exit(1)
	}
	printReport(*name, rep)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printReport prints a table of the metrics with their sample counts,
// then the result line.
func printReport(name string, rep *report) {
	var names []string
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d attempted, %d failed\n", name, rep.Attempted, rep.Failed)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-32s %14.4f %-6s samples=%d\n", n, m.Value, m.Unit, m.samples)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
