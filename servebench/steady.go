package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// steady runs every workload k times for runSeconds, each run in its own
// process with its own seed, and prints for every end-to-end metric the median, quartiles,
// min, max and the quartile spread as a share of the median — the figure
// BENCHMARK.json's bounds are set from.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	k := fs.Int("k", 5, "runs per workload")
	seed0 := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *k < 2 {
		return fmt.Errorf("-k %d: quartiles need at least two runs", *k)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		vals := map[string][]float64{}
		units := map[string]string{}
		fails := 0
		for i := 0; i < *k; i++ {
			seed := *seed0 + int64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(runSeconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r Result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s seed %d: no result (%v, %v)", w, seed, runErr, err)
			}
			if !r.Correct {
				fails++
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d:", w, seed)
			for _, n := range sortedNames(r.Metrics) {
				fmt.Fprintf(os.Stderr, " %s=%.4g", n, r.Metrics[n].Value)
			}
			fmt.Fprintln(os.Stderr)
			for n, m := range r.Metrics {
				vals[n] = append(vals[n], m.Value)
				units[n] = m.Unit
			}
		}
		fmt.Printf("\n%s: %d runs, seeds %d..%d, %d s each, %d incorrect\n", w, *k, *seed0, *seed0+int64(*k)-1, runSeconds, fails)
		fmt.Printf("%-16s %-6s %12s %12s %12s %12s %12s %9s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
		for _, n := range sortedNames(units) {
			v := vals[n]
			q1, q2, q3 := quartiles(v)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			fmt.Printf("%-16s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %8.1f%%\n",
				n, units[n], q2, q1, q3, lo, hi, 100*(q3-q1)/q2)
		}
	}
	return nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
