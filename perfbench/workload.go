package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"iotscope/internal/core"
)

// params sizes a workload's inputs. Every workload renders the bundled
// paper-default scenario; the self-test shrinks these to run in seconds.
type params struct {
	scale float64
	hours int // 0 keeps the scenario's 143-hour window
}

// workload is one scenario of the benchmark: how its inputs are set up and
// what its timed phase does.
type workload struct {
	name string
	p    params
	// servesStore makes set-up also analyze the dataset and save the result
	// store the workload serves from.
	servesStore bool
	run         func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []*workload{
	{name: "batch-paper", p: params{scale: 0.02}, run: runBatch},
	{name: "follow-paper", p: params{scale: 0.01}, run: runFollow},
	{name: "serve-reload", p: params{scale: 0.02}, servesStore: true, run: runServe},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is what a timed phase gets: the set-up inputs and a scratch
// directory inside the run's temporary directory.
type env struct {
	p       params
	seed    uint64
	seconds time.Duration
	data    string // the generated dataset directory
	store   string // the result store set-up saved (servesStore only)
	tmp     string
}

// outcome is a timed phase's operation counts and end-to-end metrics.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// checkError is a failed correctness oracle; the run fails with its name.
type checkError struct {
	name string
	msg  string
}

func (e *checkError) Error() string { return "check " + e.name + " failed: " + e.msg }

func failCheck(name, format string, args ...any) error {
	return &checkError{name: name, msg: fmt.Sprintf(format, args...)}
}

func isCheckError(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

const storeSuffix = ".irs"

// setupInputs synthesizes a workload's inputs into dir: the paper-default
// dataset and, for a serving workload, the result store of its analysis
// (saved beside dir, at dir+storeSuffix).
func setupInputs(w *workload, p params, seed uint64, dir string) error {
	cfg := core.DefaultConfig(p.scale, seed)
	cfg.Hours = p.hours
	ds, err := core.Generate(cfg, dir)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	if !w.servesStore {
		return nil
	}
	// The same configuration a store-backed load derives, so the store
	// matches what iotserve would have been handed.
	res, err := ds.Analyze(core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed))
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	return core.SaveSnapshot(dir+storeSuffix, res)
}

// setupFunc performs one set-up into dir and returns how long it took.
type setupFunc func(ctx context.Context, w *workload, p params, seed uint64, dir string) (time.Duration, error)

func inProcessSetup(_ context.Context, w *workload, p params, seed uint64, dir string) (time.Duration, error) {
	start := time.Now()
	err := setupInputs(w, p, seed, dir)
	return time.Since(start), err
}

// childSetup runs set-up in a child process, so the memory it needs never
// counts towards the timed phase's peak RSS.
func childSetup(ctx context.Context, w *workload, p params, seed uint64, dir string) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self, "setup",
		"-workload", w.name, "-seed", fmt.Sprint(seed), "-dir", dir,
		"-scale", fmt.Sprint(p.scale), "-hours", fmt.Sprint(p.hours))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	var rep struct {
		Seconds float64 `json:"seconds"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return 0, fmt.Errorf("set-up process output: %w", err)
	}
	return time.Duration(rep.Seconds * float64(time.Second)), nil
}

// setupMain is the child side of childSetup.
func setupMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench setup", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload whose inputs to set up")
	seed := fs.Uint64("seed", 1, "input seed")
	dir := fs.String("dir", "", "dataset directory to create")
	scale := fs.Float64("scale", 0, "scenario scale")
	hours := fs.Int("hours", 0, "hour window (0 keeps the scenario's)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil || *dir == "" || *scale <= 0 {
		fmt.Fprintln(stderr, "perfbench setup: -workload, -dir and -scale are required")
		return 2
	}
	start := time.Now()
	if err := setupInputs(w, params{scale: *scale, hours: *hours}, *seed, *dir); err != nil {
		fmt.Fprintf(stderr, "perfbench setup: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "{\"seconds\": %v}\n", time.Since(start).Seconds())
	return 0
}
