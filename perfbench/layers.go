package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"iotscope/internal/analysis"
	"iotscope/internal/apiserve"
	"iotscope/internal/campaign"
	"iotscope/internal/core"
	"iotscope/internal/correlate"
	"iotscope/internal/flowtuple"
	"iotscope/internal/malwaredb"
	"iotscope/internal/matview"
	"iotscope/internal/netx"
	"iotscope/internal/resultstore"
	"iotscope/internal/scenario"
	"iotscope/internal/stream"
	"iotscope/internal/threatintel"
	"iotscope/internal/wgen"
)

// hourLayers are the per-hour calls of a follow seal, in the order
// Collector.seal makes them. Each is reported as _total, _early (mean over
// the first tenth of hours) and _late (mean over the last tenth).
var hourLayers = []string{
	"stream.feed", // decode + Window.Feed
	"correlate.seal",
	"correlate.result",
	"campaign.detect",
	"stream.journal",
	"resultstore.checkpoint",
}

// handlerLayers are the in-process Server.ServeHTTP calls, one per kind of
// request in the serve-reload mix.
var handlerLayers = []string{
	"summary", "devices_offset", "devices_cursor", "device", "threats",
	"spikes", "udp_ports", "reports", "not_modified",
}

// handlerCalls is how many in-process calls each handler layer gets; the
// metric is their median.
const handlerCalls = 200

// tcpCalls is how many /v1/summary requests go over loopback TCP for
// apiserve.tcp_overhead_us.
const tcpCalls = 400

// swaps is how many Server.Swap calls apiserve.swap_ms is the median of.
const swaps = 5

// mixRounds is how many rounds of the serve-reload request mix one client
// sends over loopback TCP for apiserve.mix_p99_us and
// apiserve.mix_p99_no_reports_us.
const mixRounds = 5

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"wgen.render_ms", "ms"},
		{"core.open_ms", "ms"},
		{"flowtuple.verify_ms", "ms"},
		{"flowtuple.decode_ms", "ms"},
		{"flowtuple.records", "count"},
		{"correlate.process_ms", "ms"},
		{"analysis.characterize_ms", "ms"},
		{"analysis.stat_tests_ms", "ms"},
		{"threatintel.investigate_ms", "ms"},
		{"malwaredb.correlate_ms", "ms"},
		{"matview.build_ms", "ms"},
		{"matview.static_bytes", "bytes"},
		{"resultstore.save_ms", "ms"},
		{"resultstore.store_bytes", "bytes"},
		{"resultstore.store_load_ms", "ms"},
		{"apiserve.cold_start_ms", "ms"},
		{"apiserve.swap_ms", "ms"},
	}
	for _, l := range append(append([]string(nil), hourLayers...), "resultstore.checkpoint_bytes") {
		unit, base := "ms", l+"_ms"
		if strings.HasSuffix(l, "_bytes") {
			unit, base = "bytes", l
		}
		for _, part := range []string{"_total", "_early", "_late"} {
			defs = append(defs, metricDef{base + part, unit})
		}
	}
	defs = append(defs, metricDef{"stream.windows", "count"}, metricDef{"stream.alerts", "count"})
	for _, h := range handlerLayers {
		defs = append(defs, metricDef{"apiserve." + h + "_us", "us"})
	}
	return append(defs,
		metricDef{"apiserve.tcp_overhead_us", "us"},
		metricDef{"apiserve.mix_p99_us", "us"},
		metricDef{"apiserve.mix_p99_no_reports_us", "us"},
		metricDef{"trace.overhead_ms", "ms"},
		metricDef{"trace.base_ms", "ms"})
}()

// layered runs the layered pass twice over the workload's inputs, first
// untraced and then traced, and derives the per-layer metrics from the
// traced pass's spans. trace.overhead_ms is the traced pass's time minus
// the untraced one's, trace.base_ms the untraced time.
func layered(ctx context.Context, e *env, run, traceOut string) (*outcome, error) {
	t0 := time.Now()
	if _, err := layerPass(ctx, e, nil); err != nil {
		return nil, err
	}
	base := time.Since(t0)

	tr := newTracer(run)
	t1 := time.Now()
	lo, err := layerPass(ctx, e, tr)
	if err != nil {
		return nil, err
	}
	traced := time.Since(t1)
	if err := tr.write(traceOut); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	m := map[string]float64{
		"flowtuple.records":              float64(lo.records),
		"matview.static_bytes":           float64(lo.staticBytes),
		"resultstore.store_bytes":        float64(lo.storeBytes),
		"stream.windows":                 float64(lo.windows),
		"stream.alerts":                  float64(lo.alerts),
		"apiserve.mix_p99_us":            lo.mixP99,
		"apiserve.mix_p99_no_reports_us": lo.mixP99NoReports,
		"trace.overhead_ms":              ms(traced - base),
		"trace.base_ms":                  ms(base),
	}
	for _, name := range []string{
		"wgen.render", "core.open", "flowtuple.verify", "flowtuple.decode",
		"correlate.process", "analysis.characterize", "analysis.stat_tests",
		"threatintel.investigate", "malwaredb.correlate", "matview.build",
		"resultstore.save", "resultstore.store_load", "apiserve.cold_start",
	} {
		m[name+"_ms"] = sum(durations(tr.byName(name), ms))
	}
	m["apiserve.swap_ms"] = median(durations(tr.byName("apiserve.swap"), ms))
	for _, l := range hourLayers {
		splitHours(m, l+"_ms", durations(tr.byName(l), ms))
	}
	splitHours(m, "resultstore.checkpoint_bytes", lo.ckptBytes)
	for _, h := range handlerLayers {
		m["apiserve."+h+"_us"] = median(durations(tr.byName("apiserve."+h), us))
	}
	m["apiserve.tcp_overhead_us"] = median(durations(tr.byName("apiserve.summary_tcp"), us)) - m["apiserve.summary_us"]
	return &outcome{attempted: len(tr.spans), metrics: m}, nil
}

// splitHours reports per-hour values as their total and the means over the
// first and the last tenth of hours.
func splitHours(m map[string]float64, name string, perHour []float64) {
	tenth := len(perHour) / 10
	if tenth < 1 {
		tenth = 1
	}
	if len(perHour) == 0 {
		return
	}
	m[name+"_total"] = sum(perHour)
	m[name+"_early"] = mean(perHour[:tenth])
	m[name+"_late"] = mean(perHour[len(perHour)-tenth:])
}

// layerOut carries the counts the spans do not.
type layerOut struct {
	records     uint64
	staticBytes int
	storeBytes  int64
	ckptBytes   []float64
	windows     int
	alerts      int
	// The p99 of the serve-reload mix over TCP, µs, with and without
	// /v1/reports.
	mixP99, mixP99NoReports float64
}

// call runs fn inside a span named name.
func call(tr *tracer, name string, fn func() error) error {
	defer tr.span(name)()
	return fn()
}

// layerPass calls every layer's public functions once over the workload's
// inputs, in pipeline order: render, open, verify, decode, correlate, the
// downstream analyses, materialize, store save and load, then serving
// (cold start, swaps, each handler in process and over TCP, the request
// mix over TCP) and the per-hour follow seal sequence. Each workload runs
// the same pass over its own inputs, so every layer is measured on every
// workload.
func layerPass(ctx context.Context, e *env, tr *tracer) (*layerOut, error) {
	defer tr.span("layers")()
	out := &layerOut{}

	rs, err := scenario.Resolve(scenario.DefaultName, scenario.Options{
		Scale: e.p.scale, Seed: e.seed, Hours: e.p.hours,
	})
	if err != nil {
		return nil, err
	}
	probe := filepath.Join(e.tmp, "render")
	if err := os.MkdirAll(probe, 0o755); err != nil {
		return nil, err
	}
	if err := call(tr, "wgen.render", func() error {
		gen, err := wgen.New(rs.Scenario)
		if err != nil {
			return err
		}
		_, err = gen.Run(probe)
		return err
	}); err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	if err := os.RemoveAll(probe); err != nil {
		return nil, err
	}

	var ds *core.Dataset
	if err := call(tr, "core.open", func() (err error) {
		ds, err = core.Open(e.data)
		return err
	}); err != nil {
		return nil, err
	}
	hours := ds.Scenario.Hours
	cfg := core.DefaultConfig(ds.Scenario.Scale, ds.Scenario.Seed)

	if err := call(tr, "flowtuple.verify", func() error {
		for h := 0; h < hours; h++ {
			if _, err := flowtuple.Verify(flowtuple.HourPath(e.data, h)); err != nil {
				return fmt.Errorf("verify hour %d: %w", h, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var footer uint64
	if err := call(tr, "flowtuple.decode", func() (err error) {
		out.records, footer, err = walkHours(e.data, hours, nil)
		return err
	}); err != nil {
		return nil, err
	}

	var res *correlate.Result
	if err := call(tr, "correlate.process", func() (err error) {
		res, err = correlate.New(ds.Inventory, cfg.CorrelatorOptions()).ProcessDataset(ctx, e.data)
		return err
	}); err != nil {
		return nil, err
	}
	if err := checkFooters(out.records, footer, res); err != nil {
		return nil, err
	}
	if err := checkTruth(ds.Truth, hours, res); err != nil {
		return nil, err
	}

	// The downstream stages, called as core.DownstreamStages calls them.
	var (
		an      *analysis.Analyzer
		summary analysis.CompromisedSummary
		tests   analysis.StatTests
		mal     malwaredb.Correlation
		views   *matview.Views
	)
	call(tr, "analysis.characterize", func() error {
		an = analysis.New(res, ds.Inventory, ds.Registry)
		summary = an.Summary()
		return nil
	})
	if err := call(tr, "analysis.stat_tests", func() (err error) {
		tests, err = an.RunStatTests(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	if err := call(tr, "threatintel.investigate", func() error {
		_, err := threatintel.Investigate(ctx,
			threatintel.InvestigateConfig{TopPerCategory: exploreCut(cfg, ds)},
			res, ds.Inventory, ds.Threat)
		return err
	}); err != nil {
		return nil, err
	}
	ips := make(map[int]netx.Addr, len(res.Devices))
	for id := range res.Devices {
		ips[id] = ds.Inventory.At(id).IP
	}
	if err := call(tr, "malwaredb.correlate", func() (err error) {
		mal, err = ds.Malware.Correlate(ctx, ips, ds.Catalog)
		return err
	}); err != nil {
		return nil, err
	}
	if err := call(tr, "matview.build", func() (err error) {
		views, err = matview.Build(matview.Sources{
			Result: res, Analyzer: an, Summary: summary, StatTests: tests, Malware: mal,
			Inventory: ds.Inventory, Registry: ds.Registry, Threat: ds.Threat,
		})
		return err
	}); err != nil {
		return nil, err
	}
	out.staticBytes = views.Stats().StaticBytes

	store := filepath.Join(e.tmp, "layers"+storeSuffix)
	if err := call(tr, "resultstore.save", func() error {
		return resultstore.WriteResult(store, res)
	}); err != nil {
		return nil, err
	}
	fi, err := os.Stat(store)
	if err != nil {
		return nil, err
	}
	out.storeBytes = fi.Size()
	var loaded *correlate.Result
	if err := call(tr, "resultstore.store_load", func() (err error) {
		loaded, err = resultstore.ReadResult(store)
		return err
	}); err != nil {
		return nil, err
	}
	if err := checkRoundTrip(res, loaded); err != nil {
		return nil, err
	}

	if err := serveLayers(ctx, e, store, tr, out); err != nil {
		return nil, err
	}
	lenient := cfg
	lenient.Lenient = true
	if err := followLayers(ctx, ds, lenient, e, tr, out, res); err != nil {
		return nil, err
	}
	return out, nil
}

// exploreCut is the Sec. V-A explored-device cut the threat-intel stage
// uses, scaled like the dataset.
func exploreCut(cfg core.Config, ds *core.Dataset) int {
	cut := int(float64(cfg.ExploreTopPerCategory)*ds.Scenario.Scale + 0.5)
	if cut < 10 {
		cut = 10
	}
	return cut
}

// serveLayers boots a server from the store, swaps snapshots, times each
// kind of request in process and /v1/summary over loopback TCP, and sends
// the serve-reload mix over TCP from one client, without reloads.
func serveLayers(ctx context.Context, e *env, store string, tr *tracer, out *layerOut) error {
	var (
		ds  *core.Dataset
		res *core.Results
		api *apiserve.Server
		lb  *loopback
		c   *apiClient
	)
	err := call(tr, "apiserve.cold_start", func() (err error) {
		ds, res, _, _, err = core.LoadSnapshotOpts(ctx, e.data,
			core.LoadOptions{Store: store, RequireStore: true})
		if err != nil {
			return err
		}
		if api, err = apiserve.New(ds, res, []string{apiToken}); err != nil {
			return err
		}
		if lb, err = serveLoopback(api); err != nil {
			return err
		}
		c = newAPIClient(lb.base)
		status, _, err := c.get("/v1/summary", "")
		if err == nil {
			err = checkStatus("cold start /v1/summary", status, http.StatusOK)
		}
		return err
	})
	if lb != nil {
		defer lb.stop()
		defer c.close()
	}
	if err != nil {
		return err
	}
	for i := 0; i < swaps; i++ {
		if err := call(tr, "apiserve.swap", func() error {
			_, err := api.Swap(ds, res)
			return err
		}); err != nil {
			return err
		}
	}

	ids := sortedIDs(res.Correlate.Devices)
	etag := api.Current().ETag()
	cursor := "start"
	for _, h := range handlerLayers {
		for i := 0; i < handlerCalls; i++ {
			id := ids[i%len(ids)]
			path, inm, want := "", "", http.StatusOK
			switch h {
			case "summary":
				path = "/v1/summary"
			case "devices_offset":
				path = fmt.Sprintf("/v1/devices?limit=%d&offset=%d", pageLimit, (i*pageLimit)%(len(ids)+1))
			case "devices_cursor":
				path = fmt.Sprintf("/v1/devices?cursor=%s&limit=%d", cursor, pageLimit)
			case "device":
				path = "/v1/devices/" + strconv.Itoa(id)
			case "threats":
				path = "/v1/threats/" + ds.Inventory.At(id).IP.String()
			case "spikes":
				path = "/v1/spikes"
			case "udp_ports":
				path = "/v1/ports/udp?n=10"
			case "reports":
				path = "/v1/reports?minDevices=1"
			case "not_modified":
				path, inm, want = "/v1/summary", etag, http.StatusNotModified
			}
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.Header.Set("Authorization", "Bearer "+apiToken)
			if inm != "" {
				req.Header.Set("If-None-Match", inm)
			}
			rec := httptest.NewRecorder()
			call(tr, "apiserve."+h, func() error {
				api.ServeHTTP(rec, req)
				return nil
			})
			if err := checkStatus(path, rec.Code, want); err != nil {
				return err
			}
			if h == "devices_cursor" {
				cursor = nextCursor(rec.Body.Bytes())
			}
		}
	}
	for i := 0; i < tcpCalls; i++ {
		var status int
		if err := call(tr, "apiserve.summary_tcp", func() (err error) {
			status, _, err = c.get("/v1/summary", "")
			return err
		}); err != nil {
			return err
		}
		if err := checkStatus("/v1/summary over TCP", status, http.StatusOK); err != nil {
			return err
		}
	}

	ips := make([]string, len(ids))
	for i, id := range ids {
		ips[i] = ds.Inventory.At(id).IP.String()
	}
	_, digest, _ := etagGen(etag)
	mix := buildMix(e.seed, ids, ips)
	st := &loadStats{etag: etag}
	if err := call(tr, "apiserve.mix", func() error {
		for i := 0; i < mixRounds; i++ {
			if err := st.runRound(c, mix, ids, digest); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if st.firstErr != nil {
		if isCheckError(st.firstErr) {
			return st.firstErr
		}
		return failCheck("layer-responses", "serve mix: %v", st.firstErr)
	}
	out.mixP99 = percentile(append(append([]float64(nil), st.lat...), st.reports...), 99)
	out.mixP99NoReports = percentile(st.lat, 99)
	return nil
}

// checkStatus requires a layered-pass request to answer want.
func checkStatus(what string, got, want int) error {
	if got != want {
		return failCheck("layer-responses", "%s answered %d, want %d", what, got, want)
	}
	return nil
}

// nextCursor is the cursor to continue a walk from after this page, or
// "start" once the walk is complete.
func nextCursor(body []byte) string {
	var page devicePage
	if err := json.Unmarshal(body, &page); err != nil || page.NextCursor == "" {
		return "start"
	}
	return page.NextCursor
}

// followLayers runs the collector's per-hour seal sequence by hand, in
// the order Collector.seal makes the calls: decode and feed the hour's
// window, seal it, finalize the running result, detect campaigns, journal
// the hour's alerts (fsync'd), and rewrite the checkpoint.
func followLayers(ctx context.Context, ds *core.Dataset, cfg core.Config, e *env, tr *tracer, out *layerOut, batch *correlate.Result) error {
	inc, err := ds.NewIncremental(cfg)
	if err != nil {
		return err
	}
	state := filepath.Join(e.tmp, "layers-follow")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(state)
	alog, err := stream.OpenAlertLog(filepath.Join(state, "alerts.jsonl"))
	if err != nil {
		return err
	}
	defer alog.Close()
	ckpt := filepath.Join(state, "checkpoint.irs")

	recs := make([]flowtuple.Record, flowtuple.BatchSize)
	var backscatter []float64
	for h := 0; h < ds.Scenario.Hours; h++ {
		endHour := tr.span("follow.hour")
		var w *correlate.Window
		if err := call(tr, "stream.feed", func() error {
			var err error
			if w, err = inc.OpenWindow(h); err != nil {
				return err
			}
			return feedHour(w, flowtuple.HourPath(e.data, h), recs)
		}); err != nil {
			return err
		}
		var ws correlate.WindowStats
		if err := call(tr, "correlate.seal", func() (err error) {
			ws, err = w.Seal()
			return err
		}); err != nil {
			return err
		}
		var res *correlate.Result
		call(tr, "correlate.result", func() error {
			res = inc.Result()
			return nil
		})
		var camps []campaign.Campaign
		if err := call(tr, "campaign.detect", func() (err error) {
			camps, err = campaign.Detect(res, campaign.DefaultConfig())
			return err
		}); err != nil {
			return err
		}
		alerts := hourAlerts(ws, &backscatter, camps)
		if err := call(tr, "stream.journal", func() error {
			for _, a := range alerts {
				if _, _, err := alog.Append(a); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := call(tr, "resultstore.checkpoint", func() error {
			return resultstore.WriteCheckpoint(ckpt, inc.Export())
		}); err != nil {
			return err
		}
		endHour()
		fi, err := os.Stat(ckpt)
		if err != nil {
			return err
		}
		out.ckptBytes = append(out.ckptBytes, float64(fi.Size()))
		out.windows++
	}
	out.alerts = alog.Len()
	return checkSameExport("layer-follow-export", inc.Export().Result, batch.Export())
}

func feedHour(w *correlate.Window, path string, recs []flowtuple.Record) error {
	r, err := flowtuple.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		n, err := r.NextBatch(recs)
		if n > 0 {
			if ferr := w.Feed(recs[:n]); ferr != nil {
				return ferr
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// dosAlarm is the dos-spike threshold, as a multiple of the median
// backscatter hour so far: the collector's default.
const dosAlarm = 8

// hourAlerts derives a sealed window's alerts the way the collector does:
// a new-device alert per fresh device, a dos-spike alert when the hour's
// backscatter exceeds dosAlarm times the running median, and a
// new-campaign alert per detected campaign (the journal suppresses keys it
// has already emitted).
func hourAlerts(ws correlate.WindowStats, backscatter *[]float64, camps []campaign.Campaign) []stream.Alert {
	var alerts []stream.Alert
	for _, id := range ws.Fresh {
		alerts = append(alerts, stream.Alert{
			Kind: stream.KindNewDevice, Key: fmt.Sprintf("device/%d", id), Hour: ws.Hour, Device: id,
		})
	}
	if ws.Backscatter > 0 {
		if med := median(*backscatter); med > 0 && float64(ws.Backscatter) > dosAlarm*med {
			alerts = append(alerts, stream.Alert{
				Kind: stream.KindDoSSpike, Key: fmt.Sprintf("dos/h%d", ws.Hour), Hour: ws.Hour,
				Packets: ws.Backscatter, Ratio: float64(ws.Backscatter) / med,
			})
		}
		*backscatter = append(*backscatter, float64(ws.Backscatter))
	}
	for _, cp := range camps {
		ports := make([]string, len(cp.Ports))
		for i, p := range cp.Ports {
			ports[i] = strconv.Itoa(int(p))
		}
		alerts = append(alerts, stream.Alert{
			Kind: stream.KindNewCampaign, Key: "campaign/p" + strings.Join(ports, "-"), Hour: ws.Hour,
			Devices: cp.Devices, Ports: cp.Ports, Packets: cp.Packets,
		})
	}
	return alerts
}
