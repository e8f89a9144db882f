package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/flowtuple"
	"iotscope/internal/resultstore"
	"iotscope/internal/stream"
)

// followPoll is the collector's directory sweep interval: well below the
// smallest per-hour cost, so seal lag measures sealing, not waiting.
const followPoll = 5 * time.Millisecond

// sealPoll is how often the producer looks for the window it is waiting on.
const sealPoll = 200 * time.Microsecond

// restoreRepeats is how many times a follow pass restores its final
// checkpoint; restore_s is the median.
const restoreRepeats = 10

// runFollow is the follow-paper timed phase: the collector configured as
// `iotwatch -follow -checkpoint-dir` (on-disk checkpoint, fsync'd alert
// journal, campaigns on) tails an empty directory while a producer lands
// the hour files one at a time by atomic rename, each only after the
// previous window's seal has ended with its checkpoint. One operation is
// one hour, from its rename to the end of its window's seal. Whole passes over every hour repeat
// until the run's seconds are used, at least once.
func runFollow(ctx context.Context, e *env) (*outcome, error) {
	ds, err := core.Open(e.data)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)
	cfg.Lenient = true
	hours := ds.Scenario.Hours

	var (
		lags, passes, restores []time.Duration
		runs                   []*followRun
	)
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < e.seconds {
		debug.FreeOSMemory()
		fr, err := followPass(ctx, ds, cfg, e, len(passes))
		if err != nil {
			return nil, err
		}
		lags = append(lags, fr.lags...)
		passes = append(passes, fr.elapsed)
		runs = append(runs, fr)
		for i := 0; i < restoreRepeats; i++ {
			// Each restore starts from a collected heap returned to the
			// OS, as a restarted process would.
			debug.FreeOSMemory()
			t0 := time.Now()
			cp, err := resultstore.ReadCheckpoint(fr.checkpoint)
			if err != nil {
				return nil, fmt.Errorf("read checkpoint: %w", err)
			}
			if _, err := ds.RestoreIncremental(cfg, cp); err != nil {
				return nil, fmt.Errorf("restore checkpoint: %w", err)
			}
			restores = append(restores, time.Since(t0))
		}
	}
	lagMs := durations(lags, ms)
	out := &outcome{
		attempted: len(lags),
		metrics: map[string]float64{
			"op_p50_ms":   median(lagMs),
			"op_tail_ms":  percentile(lagMs, 90),
			"ops_per_s":   float64(len(lags)) / sum(durations(passes, time.Duration.Seconds)),
			"restore_s":   median(durations(restores, time.Duration.Seconds)),
			"peak_rss_mb": peakRSSMB(),
		},
	}

	batch, err := correlate.New(ds.Inventory, cfg.CorrelatorOptions()).ProcessDataset(ctx, e.data)
	if err != nil {
		return out, fmt.Errorf("batch oracle: %w", err)
	}
	for _, fr := range runs {
		if err := followChecks(fr, hours, batch); err != nil {
			return out, err
		}
	}
	return out, nil
}

// followRun is what one pass leaves for the checks.
type followRun struct {
	lags       []time.Duration
	elapsed    time.Duration // first rename to the end of the last seal
	stats      stream.Stats
	checkpoint string
	journal    string
}

func followPass(ctx context.Context, ds *core.Dataset, cfg core.Config, e *env, pass int) (*followRun, error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("follow-%d", pass))
	ckptDir := filepath.Join(e.tmp, fmt.Sprintf("follow-%d-state", pass))
	for _, d := range []string{dir, ckptDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	fr := &followRun{
		checkpoint: filepath.Join(ckptDir, "checkpoint.irs"),
		journal:    filepath.Join(ckptDir, "alerts.jsonl"),
	}
	alog, err := stream.OpenAlertLog(fr.journal)
	if err != nil {
		return nil, err
	}
	defer alog.Close()
	// Like iotwatch, every ingest-loop start resumes from the checkpoint
	// if one exists.
	opener := func() (*correlate.Incremental, error) {
		cp, err := resultstore.ReadCheckpoint(fr.checkpoint)
		if errors.Is(err, fs.ErrNotExist) {
			return ds.NewIncremental(cfg)
		}
		if err != nil {
			return nil, err
		}
		return ds.RestoreIncremental(cfg, cp)
	}
	col, err := stream.New(stream.Config{
		Dir:            dir,
		CheckpointPath: fr.checkpoint,
		Poll:           followPoll,
		Campaigns:      true,
	}, opener, stream.NewHub(alog))
	if err != nil {
		return nil, err
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		runErr = col.Run(cctx)
	}()
	stop := func() error {
		cancel()
		<-done
		return runErr
	}

	hours := ds.Scenario.Hours
	// Whatever happens, the hour files go back where set-up put them.
	defer func() {
		for h := 0; h < hours; h++ {
			os.Rename(flowtuple.HourPath(dir, h), flowtuple.HourPath(e.data, h))
		}
	}()
	start := time.Now()
	for h := 0; h < hours; h++ {
		t0 := time.Now()
		if err := os.Rename(flowtuple.HourPath(e.data, h), flowtuple.HourPath(dir, h)); err != nil {
			stop()
			return nil, err
		}
		if err := waitFor(done, func() bool { return checkpointed(col) > h }); err != nil {
			stop()
			return nil, fmt.Errorf("hour %d: %w", h, err)
		}
		fr.lags = append(fr.lags, time.Since(t0))
	}
	fr.elapsed = time.Since(start)
	if err := stop(); err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	fr.stats = col.Stats()
	return fr, nil
}

// checkpointed is how many seals have ended. The collector counts a
// window sealed before it finalizes the result, detects campaigns,
// journals the window's alerts and rewrites the checkpoint; the
// checkpoint attempt is the seal's last step, so an hour's operation ends
// with it and carries its own seal's whole cost.
func checkpointed(col *stream.Collector) int {
	s := col.Stats()
	return int(s.CheckpointWrites + s.CheckpointFailures)
}

// waitFor polls cond until it holds, failing if the collector stops first.
func waitFor(done <-chan struct{}, cond func() bool) error {
	for !cond() {
		select {
		case <-done:
			return errors.New("collector stopped early")
		case <-time.After(sealPoll):
		}
	}
	return nil
}

func followChecks(fr *followRun, hours int, batch *correlate.Result) error {
	s := fr.stats
	if s.WindowsSealed != hours || s.WindowsPartial != 0 || s.LateHours != 0 ||
		s.HoursQuarantined != 0 || s.Restarts != 0 || s.CheckpointFailures != 0 {
		return failCheck("follow-windows",
			"%d hours landed: %d windows sealed (%d partial), %d late, %d quarantined, %d restarts, %d checkpoint failures",
			hours, s.WindowsSealed, s.WindowsPartial, s.LateHours, s.HoursQuarantined, s.Restarts, s.CheckpointFailures)
	}
	cp, err := resultstore.ReadCheckpoint(fr.checkpoint)
	if err != nil {
		return err
	}
	if err := checkSameExport("follow-export", cp.Result, batch.Export()); err != nil {
		return err
	}
	return followJournal(fr.journal, s, batch)
}

// followJournal checks the alert journal against the collector's count
// and the batch result: one new-device alert per inferred device.
func followJournal(journal string, s stream.Stats, batch *correlate.Result) error {
	alerts, err := readJournal(journal)
	if err != nil {
		return err
	}
	if uint64(len(alerts)) != s.AlertsEmitted {
		return failCheck("follow-journal", "journal holds %d alerts, collector emitted %d", len(alerts), s.AlertsEmitted)
	}
	seen := make(map[int]int)
	for _, a := range alerts {
		if a.Kind == stream.KindNewDevice {
			seen[a.Device]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			return failCheck("follow-alerts", "device %d has %d new-device alerts", id, n)
		}
		if _, ok := batch.Devices[id]; !ok {
			return failCheck("follow-alerts", "new-device alert for device %d, which batch did not infer", id)
		}
	}
	if len(seen) != len(batch.Devices) {
		return failCheck("follow-alerts", "%d devices alerted, batch inferred %d", len(seen), len(batch.Devices))
	}
	return nil
}

func readJournal(path string) ([]stream.Alert, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var alerts []stream.Alert
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		var a stream.Alert
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			return nil, failCheck("follow-journal", "unparsable journal line: %v", err)
		}
		alerts = append(alerts, a)
	}
	return alerts, sc.Err()
}
