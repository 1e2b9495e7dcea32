// Command servebench is the serving benchmark: it drives the sharded engine
// with a seeded request stream through a fixed iteration schedule, or
// repeats fleet.Simulate of a fault-and-autoscale trace, checks the
// outputs, and prints one JSON result line.
//
//	servebench --workload chat --seed 1 --seconds 15 --trace 0
//	servebench steady -k 5 --seed 101
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the per-layer metrics of a traced run, whose Chrome trace and per-layer
// summary land in .bench_out/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// note reports a finding on standard error.
func note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

var workloads = []string{"chat", "templates", "offline", "fleet-sim"}

// runSeconds is the run length BENCHMARK.json gives; the steady command
// measures at it.
const runSeconds = 15

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "servebench steady:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed of the request stream")
	seconds := fs.Float64("seconds", runSeconds, "seconds to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "servebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var res *Result
	var err error
	switch {
	case *workload == "fleet-sim":
		res, err = runFleet(*seed, *seconds, *trace == 1)
	case engineSpecs[*workload] != nil:
		res, err = runEngine(*workload, *seed, *seconds, *trace == 1)
	default:
		fmt.Fprintf(os.Stderr, "servebench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printTable prints the metrics sorted by name, one per line, before the
// JSON line.
func printTable(r *Result) {
	for _, n := range sortedNames(r.Metrics) {
		m := r.Metrics[n]
		fmt.Printf("%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("correct %v, attempted %d, failed %d\n", r.Correct, r.Attempted, r.Failed)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, read from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stealTime is the machine's stolen CPU time summed over all CPUs
// (/proc/stat, USER_HZ = 100): time the hypervisor ran something else
// while a CPU had work. 0 where /proc/stat does not exist.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	j, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(j) * 10 * time.Millisecond
}
