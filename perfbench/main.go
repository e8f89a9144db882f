// Command perfbench is iotscope's end-to-end benchmark. It runs one of
// three workloads over synthesized paper-default inputs and prints, as the
// last line of its output, one JSON object with the operations it
// attempted and failed and its metrics:
//
//	perfbench --workload batch-paper --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the timed phase runs with tracing off and the end-to-end
// metrics are printed. With --trace 1 a separate layered pass calls every
// layer's public functions in pipeline order, once untraced and once with
// a span around each call, and the per-layer metrics are printed; the
// spans are written as JSON to --trace-out. A failed correctness check
// fails the run with the check's name. See README.md.
//
//	perfbench steady --runs 10   # repeat runs and print medians, quartiles and spreads
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names a metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is every end-to-end metric, which every workload reports; what
// an operation is depends on the workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"restore_s", "s"},
	{"peak_rss_mb", "MB"},
}

// setups is how many times a run sets its inputs up; setup_s is the median.
const setups = 3

// buildDir holds the benchmark's binary, build cache, scratch runs and the
// last trace, relative to the checkout root the benchmark runs from.
const buildDir = ".bench_build"

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "setup":
			return setupMain(args[1:], stdout, stderr)
		case "steady":
			return steadyMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: batch-paper, follow-paper or serve-reload")
	seed := fs.Uint64("seed", 1, "seed the inputs are synthesized from")
	seconds := fs.Int("seconds", 15, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1 runs the traced layered pass and prints per-layer metrics")
	traceOut := fs.String("trace-out", filepath.Join(buildDir, "spans.json"), "where --trace 1 writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds non-negative")
		return 2
	}
	res, err := bench(context.Background(), runOptions{
		w: w, p: w.p, seed: *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		traceOut: *traceOut,
		base:     buildDir,
		setup:    childSetup,
	})
	if res != nil {
		line, _ := json.Marshal(res)
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

type runOptions struct {
	w        *workload
	p        params
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceOut string
	base     string // parent of the run's temporary directory
	setup    setupFunc
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// bench sets the workload's inputs up, runs its timed phase (or, with
// trace, the layered passes) and checks the outputs. A failed check
// returns both the result, marked incorrect, and the check's error.
func bench(ctx context.Context, o runOptions) (*result, error) {
	if err := os.MkdirAll(o.base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var setupTimes []float64
	data := filepath.Join(tmp, "data")
	for i := 0; i < setups; i++ {
		dir := data
		if i > 0 {
			dir = filepath.Join(tmp, fmt.Sprintf("setup-%d", i))
		}
		d, err := o.setup(ctx, o.w, o.p, o.seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i > 0 {
			os.RemoveAll(dir)
			os.Remove(dir + storeSuffix)
		}
	}
	e := &env{
		p: o.p, seed: o.seed, seconds: o.seconds,
		data: data, store: data + storeSuffix, tmp: tmp,
	}

	var (
		out  *outcome
		defs []metricDef
	)
	if o.trace {
		out, err = layered(ctx, e, fmt.Sprintf("%s-seed%d", o.w.name, o.seed), o.traceOut)
		defs = perLayer
	} else {
		out, err = o.w.run(ctx, e)
		if out != nil {
			out.metrics["setup_s"] = median(setupTimes)
		}
		defs = endToEnd
	}
	if err != nil && (out == nil || !isCheckError(err)) {
		return nil, err
	}
	res := &result{
		Correct:   err == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		if v, ok := out.metrics[d.name]; ok {
			res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		}
	}
	if err == nil && len(res.Metrics) != len(defs) {
		return res, fmt.Errorf("reported %d of %d metrics", len(res.Metrics), len(defs))
	}
	return res, err
}

// peakRSSMB is the process's peak resident set so far. Set-up runs in
// child processes, so read right after a timed phase it is that phase's
// peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
