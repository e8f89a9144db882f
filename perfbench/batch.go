package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"time"

	"iotscope/internal/core"
)

// runBatch is the batch-paper timed phase. One operation is what
// `iotinfer -save` plus a store-less iotserve boot do: the store-less load
// path (open → verify → correlate → characterize / stat-tests /
// threat-intel / malware → materialize) followed by saving the result
// store. After each operation the saved store is loaded back the way a
// store-backed iotserve boot would (restore_s). Operations repeat until
// the run's seconds are used, at least once.
func runBatch(ctx context.Context, e *env) (*outcome, error) {
	store := filepath.Join(e.tmp, "batch"+storeSuffix)
	var (
		ops, restores []time.Duration
		ds            *core.Dataset
		res, loaded   *core.Results
	)
	start := time.Now()
	for len(ops) == 0 || time.Since(start) < e.seconds {
		// Drop the previous iteration's results and start each operation
		// from a collected heap returned to the OS, as a fresh iotinfer
		// process would.
		ds, res, loaded = nil, nil, nil
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		ds, res, _, _, err = core.LoadSnapshotOpts(ctx, e.data, core.LoadOptions{})
		if err != nil {
			return nil, fmt.Errorf("store-less load: %w", err)
		}
		if err := core.SaveSnapshot(store, res); err != nil {
			return nil, fmt.Errorf("save store: %w", err)
		}
		ops = append(ops, time.Since(t0))

		debug.FreeOSMemory()
		t1 := time.Now()
		var prov core.Provenance
		_, loaded, prov, _, err = core.LoadSnapshotOpts(ctx, e.data,
			core.LoadOptions{Store: store, RequireStore: true})
		if err != nil {
			return nil, fmt.Errorf("store-backed load: %w", err)
		}
		restores = append(restores, time.Since(t1))
		if prov.Source != "store" {
			return nil, fmt.Errorf("store-backed load came from %q", prov.Source)
		}
	}
	opMs := durations(ops, ms)
	out := &outcome{
		attempted: len(ops),
		metrics: map[string]float64{
			"op_p50_ms": median(opMs),
			// Fewer than forty operations fit in a run, so no percentile
			// has ten samples beyond it: the tail is the slowest one.
			"op_tail_ms":  percentile(opMs, 100),
			"ops_per_s":   float64(len(ops)) / (sum(opMs) / 1000),
			"restore_s":   median(durations(restores, time.Duration.Seconds)),
			"peak_rss_mb": peakRSSMB(),
		},
	}
	return out, batchChecks(e, ds, res, loaded)
}

// batchChecks judges the last iteration's outputs.
func batchChecks(e *env, ds *core.Dataset, res, loaded *core.Results) error {
	corr := res.Correlate
	packets, decoded, footer, err := joinPackets(e.data, ds.Scenario.Hours, ds.Inventory)
	if err != nil {
		return err
	}
	if err := checkFooters(decoded, footer, corr); err != nil {
		return err
	}
	if err := checkJoin(packets, corr); err != nil {
		return err
	}
	if err := checkTruth(ds.Truth, ds.Scenario.Hours, corr); err != nil {
		return err
	}
	if err := checkViews(res); err != nil {
		return err
	}
	return checkRoundTrip(corr, loaded.Correlate)
}

// checkViews requires materialized views that cover every inferred device.
func checkViews(res *core.Results) error {
	if res.Views == nil || res.Views.NumDevices() != len(res.Correlate.Devices) {
		return failCheck("materialized", "views missing or not covering the %d inferred devices", len(res.Correlate.Devices))
	}
	return nil
}
