package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"iotscope/internal/apiserve"
	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/stream"
)

// tiny shrinks every workload to a few hours of a small world, so each
// runs its timed phase, its layered pass and all of its checks in about a
// second.
var tiny = params{scale: 0.002, hours: 6}

func tinyBench(t *testing.T, w *workload, trace bool) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := bench(context.Background(), runOptions{
		w: w, p: tiny, seed: 5, trace: trace,
		traceOut: filepath.Join(dir, "spans.json"),
		base:     dir,
		setup:    inProcessSetup,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := tinyBench(t, w, false)
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Fatalf("metric %s missing or with unit %q", d.name, m.Unit)
				}
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive measurement", d.name, m.Value)
				}
			}
		})
	}
}

// TestLayeredTiny runs the layered pass, which is the same on every
// workload; serve-reload's set-up also saves a store.
func TestLayeredTiny(t *testing.T) {
	res := tinyBench(t, lookupWorkload("serve-reload"), true)
	for _, d := range perLayer {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Fatalf("metric %s missing or with unit %q", d.name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", d.name, m.Value)
		}
	}
	if got := res.Metrics["stream.windows"].Value; got != float64(tiny.hours) {
		t.Errorf("stream.windows = %v, want %d", got, tiny.hours)
	}
}

func TestSpansWritten(t *testing.T) {
	tr := newTracer("test")
	endOuter := tr.span("outer")
	tr.span("inner")()
	time.Sleep(time.Millisecond)
	endOuter()
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 || doc.Spans[1].Parent != doc.Spans[0].ID || doc.Spans[0].Run != "test" {
		t.Fatalf("spans %+v", doc.Spans)
	}
	self := tr.selfTimes()
	if want := doc.Spans[0].dur() - doc.Spans[1].dur(); self[0] != want {
		t.Errorf("outer self time %v, want %v", self[0], want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 90); p != 5 {
		t.Fatalf("p90 = %v", p)
	}
}

// TestChecksFailByName tampers with each oracle's input and requires the
// run to fail with that oracle's name.
func TestChecksFailByName(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if err := setupInputs(workloads[0], tiny, 5, dir); err != nil {
		t.Fatal(err)
	}
	ds, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := correlate.New(ds.Inventory, correlate.Options{}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	packets, decoded, footer, err := joinPackets(dir, tiny.hours, ds.Inventory)
	if err != nil {
		t.Fatal(err)
	}
	ids := sortedIDs(res.Devices)
	if len(ids) == 0 {
		t.Fatal("tiny dataset infers nothing")
	}
	good := []error{
		checkFooters(decoded, footer, res),
		checkJoin(packets, res),
		checkTruth(ds.Truth, tiny.hours, res),
		checkRoundTrip(res, res.Clone()),
		checkSameExport("x", res.Export(), res.Export()),
	}
	for i, err := range good {
		if err != nil {
			t.Fatalf("check %d fails on good input: %v", i, err)
		}
	}

	tampered := res.Clone()
	tampered.Devices[ids[0]].Packets[0]++
	bumped := make(map[int]uint64, len(packets))
	for id, n := range packets {
		bumped[id] = n
	}
	bumped[ids[0]]++
	truth := ds.Truth
	truth.Compromised = nil
	for _, id := range ds.Truth.Compromised {
		if id != ids[0] {
			truth.Compromised = append(truth.Compromised, id)
		}
	}

	journal := filepath.Join(t.TempDir(), "alerts.jsonl")
	alog, err := stream.OpenAlertLog(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Every device is alerted once, and the first once more under another key.
	for _, key := range append(ids, -1) {
		id := key
		if key < 0 {
			id = ids[0]
		}
		a := stream.Alert{Kind: stream.KindNewDevice, Key: "device/" + strconv.Itoa(key), Device: id}
		if _, _, err := alog.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	alog.Close()
	run := func(s stream.Stats) *followRun {
		return &followRun{stats: s, checkpoint: filepath.Join(t.TempDir(), "none"), journal: journal}
	}
	clean := stream.Stats{WindowsSealed: tiny.hours}

	st := &loadStats{}
	st.judge("/v1/summary", 304, `"g1-abc"`, `"g0-abc"`, "abc")

	// A live server over the same dataset for the checks that ask it.
	ds2, full, _, _, err := core.LoadSnapshotOpts(context.Background(), dir, core.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	api, err := apiserve.New(ds2, full, []string{apiToken})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := serveLoopback(api)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.stop()
	c := newAPIClient(lb.base)
	defer c.close()
	_, digest, _ := etagGen(api.Current().ETag())
	served := sortedIDs(full.Correlate.Devices)
	if err := serveChecks(c, []*loadStats{{}}, nil, served, digest, len(served)); err != nil {
		t.Fatalf("serve checks fail on good input: %v", err)
	}
	if err := checkViews(full); err != nil {
		t.Fatalf("materialized fails on good input: %v", err)
	}
	viewless := *full
	viewless.Views = nil

	for name, err := range map[string]error{
		"footer-records":    checkFooters(decoded+1, footer, res),
		"inventory-join":    checkJoin(bumped, res),
		"truth":             checkTruth(truth, tiny.hours, res),
		"store-roundtrip":   checkRoundTrip(res, tampered),
		"follow-export":     checkSameExport("follow-export", tampered.Export(), res.Export()),
		"follow-windows":    followChecks(run(stream.Stats{WindowsSealed: tiny.hours - 1}), tiny.hours, res),
		"follow-journal":    followJournal(journal, clean, res),
		"follow-alerts":     followJournal(journal, stream.Stats{AlertsEmitted: uint64(len(ids) + 1)}, res),
		"serve-responses":   serveChecks(nil, []*loadStats{st}, nil, ids, "abc", len(ids)),
		"serve-generation":  serveChecks(nil, []*loadStats{{}}, []uint64{2, 4}, ids, "abc", len(ids)),
		"serve-summary":     serveChecks(c, []*loadStats{{}}, nil, served, digest, len(served)+1),
		"serve-cursor-walk": serveChecks(c, []*loadStats{{}}, nil, served[1:], digest, len(served)),
		"materialized":      checkViews(&viewless),
		"layer-responses":   checkStatus("/v1/summary", http.StatusInternalServerError, http.StatusOK),
	} {
		if err == nil || !isCheckError(err) || !strings.Contains(err.Error(), "check "+name+" ") {
			t.Errorf("%s: got %v", name, err)
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the code
// reports in step.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	for _, pair := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(pair.file) != len(pair.code) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in code", len(pair.file), len(pair.code))
		}
		for i, m := range pair.file {
			if m.Name != pair.code[i].name || m.Unit != pair.code[i].unit {
				t.Errorf("metric %d: %s/%s vs %s/%s", i, m.Name, m.Unit, pair.code[i].name, pair.code[i].unit)
			}
		}
	}
}
