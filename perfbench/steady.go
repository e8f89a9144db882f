package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// steadyMain runs each workload repeatedly, each run with the next seed,
// and prints every metric's median, quartiles and spread (interquartile
// range over median, quartiles as Python's statistics.quantiles gives
// them). With BENCHMARK.json readable it also prints each end-to-end
// metric's bound and flags spreads above a third of it.
func steadyMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workloads", "", "comma-separated workloads (default: all)")
	runs := fs.Int("runs", 10, "runs per workload")
	seed := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 15, "--seconds of each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []*workload
	if *names == "" {
		ws = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w := lookupWorkload(strings.TrimSpace(n))
			if w == nil {
				fmt.Fprintf(stderr, "perfbench steady: unknown workload %q\n", n)
				return 2
			}
			ws = append(ws, w)
		}
	}
	bounds := readBounds("BENCHMARK.json")
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench steady: %v\n", err)
		return 1
	}

	status := 0
	for _, w := range ws {
		values := make(map[string][]float64)
		units := make(map[string]string)
		var shares []string
		for i := 0; i < *runs; i++ {
			s := *seed + uint64(i)
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(s),
				"--seconds", fmt.Sprint(*seconds))
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "perfbench steady: %s seed %d: %v\n", w.name, s, err)
				status = 1
				continue
			}
			var res result
			if err := json.Unmarshal(lastLine(out), &res); err != nil {
				fmt.Fprintf(stderr, "perfbench steady: %s seed %d: %v\n", w.name, s, err)
				status = 1
				continue
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		fmt.Fprintf(stdout, "%s: %d runs, failed/attempted %s\n", w.name, len(shares), strings.Join(shares, " "))
		fmt.Fprintf(stdout, "  %-36s %-6s %12s %12s %12s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
		metricNames := make([]string, 0, len(values))
		for name := range values {
			metricNames = append(metricNames, name)
		}
		sort.Strings(metricNames)
		for _, name := range metricNames {
			q1, q2, q3 := quartiles(values[name])
			spread := (q3 - q1) / math.Abs(q2)
			line := fmt.Sprintf("  %-36s %-6s %12.4f %12.4f %12.4f %8.4f", name, units[name], q2, q1, q3, spread)
			if b, ok := bounds[name]; ok {
				line += fmt.Sprintf(" %6.3f", b)
				if spread > b/3 {
					line += "  WIDE"
				}
			}
			fmt.Fprintln(stdout, line)
		}
	}
	return status
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// readBounds reads the end-to-end bounds of a BENCHMARK.json, if present.
func readBounds(path string) map[string]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &b) != nil {
		return nil
	}
	bounds := make(map[string]float64)
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}
