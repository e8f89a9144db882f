package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotscope/internal/apiserve"
	"iotscope/internal/core"
)

const (
	apiToken = "perfbench"
	// reloadEvery is the serve-reload cadence of store-backed reloads; the
	// first runs half a period in. A reload takes about a quarter of it, so
	// most requests meet an idle reloader and the median stays off the
	// reload-contended mode, which the tail measures.
	reloadEvery = 2 * time.Second
	// mixLen is the length of one client round of the request mix.
	mixLen = 200
	// pageLimit is the /v1/devices page size of offset pages and cursor walks.
	pageLimit = 100
)

// reqKind is one kind of request in the serve-reload mix.
type reqKind int

const (
	kSummary reqKind = iota
	kDevicesOffset
	kCursorWalk
	kDevice
	kThreats
	kSpikes
	kUDPPorts
	kReports
	kCampaigns
	kRevalidate
)

// mixWeights is each kind's share of the mix, in percent (they sum to
// 100). A cursor walk is one entry but as many requests as the walk has
// pages. The shares are an assumption: nothing in the repository records
// how clients use the API. /v1/reports, the one endpoint answered by
// encoding on every request rather than from a materialized view, gets
// 5 %, enough to lie inside the p99; the layered pass reports the tail
// with and without it (apiserve.mix_p99_us, apiserve.mix_p99_no_reports_us).
var mixWeights = [...]int{
	kSummary: 15, kDevicesOffset: 15, kCursorWalk: 5, kDevice: 20, kThreats: 10,
	kSpikes: 5, kUDPPorts: 5, kReports: 5, kCampaigns: 5, kRevalidate: 15,
}

type mixEntry struct {
	kind reqKind
	path string
}

// buildMix builds one round of the request mix: every kind exactly its
// share of mixLen entries, in an order and with parameters (devices, IPs,
// offsets) drawn from the seed. ids are the inferred device IDs,
// ascending; ips their addresses.
func buildMix(seed uint64, ids []int, ips []string) []mixEntry {
	r := rand.New(rand.NewSource(int64(seed)))
	kinds := make([]reqKind, 0, mixLen)
	for k, w := range mixWeights {
		for i := 0; i < w*mixLen/100; i++ {
			kinds = append(kinds, reqKind(k))
		}
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	mix := make([]mixEntry, len(kinds))
	for i, k := range kinds {
		var path string
		switch k {
		case kSummary, kRevalidate:
			path = "/v1/summary"
		case kDevicesOffset:
			path = fmt.Sprintf("/v1/devices?limit=%d&offset=%d", pageLimit, r.Intn(len(ids)/pageLimit+1)*pageLimit)
		case kCursorWalk:
			path = fmt.Sprintf("/v1/devices?cursor=start&limit=%d", pageLimit)
		case kDevice:
			path = "/v1/devices/" + strconv.Itoa(ids[r.Intn(len(ids))])
		case kThreats:
			path = "/v1/threats/" + ips[r.Intn(len(ips))]
		case kSpikes:
			path = "/v1/spikes"
		case kUDPPorts:
			path = "/v1/ports/udp?n=10"
		case kReports:
			path = "/v1/reports?minDevices=1"
		case kCampaigns:
			path = "/v1/campaigns"
		}
		mix[i] = mixEntry{kind: k, path: path}
	}
	return mix
}

// loopback serves api over TCP on a loopback port until stop is called.
type loopback struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln)
	}()
	return lb, nil
}

func (lb *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	<-lb.done
	return err
}

// apiClient is one closed-loop keep-alive client.
type apiClient struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newAPIClient(base string) *apiClient {
	return &apiClient{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// get issues one request and reads the whole body into c.buf.
func (c *apiClient) get(path, ifNoneMatch string) (status int, etag string, err error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Authorization", "Bearer "+apiToken)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("ETag"), nil
}

// etagGen splits a `"g<generation>-<digest>"` validator.
func etagGen(etag string) (gen uint64, digest string, ok bool) {
	s := strings.Trim(etag, `"`)
	g, d, found := strings.Cut(strings.TrimPrefix(s, "g"), "-")
	if !found || !strings.HasPrefix(s, "g") {
		return 0, "", false
	}
	n, err := strconv.ParseUint(g, 10, 64)
	return n, d, err == nil
}

type devicePage struct {
	Devices []struct {
		ID int `json:"id"`
	} `json:"devices"`
	NextCursor string `json:"nextCursor"`
	Total      int    `json:"total"`
}

// loadStats is one client's share of the load phase.
type loadStats struct {
	lat      []float64 // µs per request, but /v1/reports
	reports  []float64 // µs per /v1/reports request
	failed   int
	walks    int
	firstErr error
	lastGen  uint64
	etag     string // latest /v1/summary validator seen
}

func (s *loadStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// runRound sends one round of the mix and judges every response: 200, or
// 304 only for an If-None-Match naming the current snapshot; validator
// generations never go back; cursor walks yield exactly ids.
func (s *loadStats) runRound(c *apiClient, mix []mixEntry, ids []int, digest string) error {
	for _, m := range mix {
		if m.kind == kCursorWalk {
			if err := s.walk(c, ids, digest); err != nil {
				return err
			}
			continue
		}
		inm := ""
		if m.kind == kRevalidate {
			inm = s.etag
		}
		t0 := time.Now()
		status, etag, err := c.get(m.path, inm)
		if err != nil {
			return err
		}
		if m.kind == kReports {
			s.reports = append(s.reports, us(time.Since(t0)))
		} else {
			s.lat = append(s.lat, us(time.Since(t0)))
		}
		s.judge(m.path, status, etag, inm, digest)
		if m.path == "/v1/summary" && etag != "" {
			s.etag = etag
		}
	}
	return nil
}

func (s *loadStats) judge(path string, status int, etag, inm, digest string) {
	switch {
	case status == http.StatusNotModified && (inm == "" || inm != etag):
		s.fail(fmt.Errorf("%s: 304 for If-None-Match %q, validator %q", path, inm, etag))
		return
	case status == http.StatusOK && inm != "" && inm == etag:
		s.fail(fmt.Errorf("%s: 200 although If-None-Match %q is current", path, inm))
		return
	case status != http.StatusOK && status != http.StatusNotModified:
		s.fail(fmt.Errorf("%s: status %d", path, status))
		return
	}
	gen, d, ok := etagGen(etag)
	switch {
	case !ok:
		s.fail(fmt.Errorf("%s: malformed validator %q", path, etag))
	case d != digest:
		s.fail(fmt.Errorf("%s: validator %q names another result than the store's (%s)", path, etag, digest))
	case gen < s.lastGen:
		s.fail(fmt.Errorf("%s: generation went back from %d to %d", path, s.lastGen, gen))
	default:
		s.lastGen = gen
	}
}

// walk pages through /v1/devices by cursor and checks it yields ids.
func (s *loadStats) walk(c *apiClient, ids []int, digest string) error {
	var got []int
	path := fmt.Sprintf("/v1/devices?cursor=start&limit=%d", pageLimit)
	for {
		t0 := time.Now()
		status, etag, err := c.get(path, "")
		if err != nil {
			return err
		}
		s.lat = append(s.lat, us(time.Since(t0)))
		s.judge(path, status, etag, "", digest)
		if status != http.StatusOK {
			return nil
		}
		var page devicePage
		if err := json.Unmarshal(c.buf.Bytes(), &page); err != nil {
			s.fail(fmt.Errorf("cursor page: %v", err))
			return nil
		}
		for _, d := range page.Devices {
			got = append(got, d.ID)
		}
		if page.NextCursor == "" {
			break
		}
		path = fmt.Sprintf("/v1/devices?cursor=%s&limit=%d", url.QueryEscape(page.NextCursor), pageLimit)
	}
	s.walks++
	if !slices.Equal(got, ids) {
		s.fail(failCheck("serve-cursor-walk", "walk yielded %d devices, %d inferred", len(got), len(ids)))
	}
	return nil
}

// runServe is the serve-reload timed phase: boot from the result store,
// then nproc closed-loop keep-alive clients send the seeded request mix
// over loopback TCP while a store-backed reload plus Server.Swap runs every
// reloadEvery. One operation is one request or one reload; clients stop at
// a round boundary once the run's seconds are used and no reload is in
// flight.
func runServe(ctx context.Context, e *env) (*outcome, error) {
	ds, res, prov, _, err := core.LoadSnapshotOpts(ctx, e.data, core.LoadOptions{Store: e.store})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	if prov.Source != "store" {
		return nil, fmt.Errorf("boot came from %q, not the store: %s", prov.Source, prov.Fallback)
	}
	api, err := apiserve.New(ds, res, []string{apiToken})
	if err != nil {
		return nil, err
	}
	lb, err := serveLoopback(api)
	if err != nil {
		return nil, err
	}
	defer lb.stop()

	ids := sortedIDs(res.Correlate.Devices)
	if len(ids) == 0 {
		return nil, errors.New("nothing inferred to serve")
	}
	ips := make([]string, len(ids))
	for i, id := range ids {
		ips[i] = ds.Inventory.At(id).IP.String()
	}
	first := newAPIClient(lb.base)
	defer first.close()
	status, etag, err := first.get("/v1/summary", "")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("first /v1/summary: status %d: %v", status, err)
	}
	_, digest, ok := etagGen(etag)
	if !ok {
		return nil, fmt.Errorf("malformed validator %q", etag)
	}

	nClients := runtime.NumCPU()
	stats := make([]*loadStats, nClients)
	var (
		reloads   []time.Duration
		gens      []uint64
		reloadErr error
		reloading atomic.Bool
		wg        sync.WaitGroup
	)
	reloading.Store(true)
	start := time.Now()
	deadline := start.Add(e.seconds)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer reloading.Store(false)
		next := start.Add(reloadEvery / 2)
		if e.seconds < reloadEvery/2 {
			next = start // a short run still reloads once under load
		}
		for {
			select {
			case <-ctx.Done():
				reloadErr = ctx.Err()
				return
			case <-time.After(time.Until(next)):
			}
			t0 := time.Now()
			ds, res, _, _, err := core.LoadSnapshotOpts(ctx, e.data,
				core.LoadOptions{Store: e.store, RequireStore: true})
			if err != nil {
				reloadErr = fmt.Errorf("reload: %w", err)
				return
			}
			gen, err := api.Swap(ds, res)
			if err != nil {
				reloadErr = fmt.Errorf("swap: %w", err)
				return
			}
			reloads = append(reloads, time.Since(t0))
			gens = append(gens, gen)
			if next = next.Add(reloadEvery); !next.Before(deadline) {
				return
			}
		}
	}()

	mix := buildMix(e.seed, ids, ips)
	errs := make([]error, nClients)
	for i := range stats {
		st := &loadStats{etag: etag}
		stats[i] = st
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newAPIClient(lb.base)
			defer c.close()
			// Clients start at different points of the same mix.
			rot := append(append([]mixEntry(nil), mix[i*len(mix)/nClients:]...), mix[:i*len(mix)/nClients]...)
			for round := 0; round == 0 || reloading.Load() || time.Now().Before(deadline); round++ {
				if err := st.runRound(c, rot, ids, digest); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rss := peakRSSMB()
	if reloadErr != nil {
		return nil, reloadErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var lat, rest []float64
	out := &outcome{attempted: len(reloads)}
	for _, st := range stats {
		lat = append(append(lat, st.lat...), st.reports...)
		rest = append(rest, st.lat...)
		out.failed += st.failed
	}
	fmt.Fprintf(os.Stderr, "serve-reload: request p99 %.3f ms, %.3f ms without /v1/reports (%d of %d requests)\n",
		percentile(lat, 99)/1000, percentile(rest, 99)/1000, len(lat)-len(rest), len(lat))
	out.attempted += len(lat)
	out.metrics = map[string]float64{
		"op_p50_ms":   percentile(lat, 50) / 1000,
		"op_tail_ms":  percentile(lat, 99) / 1000,
		"ops_per_s":   float64(len(lat)) / elapsed.Seconds(),
		"restore_s":   median(durations(reloads, time.Duration.Seconds)),
		"peak_rss_mb": rss,
	}
	return out, serveChecks(first, stats, gens, ids, digest, len(res.Correlate.Devices))
}

func serveChecks(c *apiClient, stats []*loadStats, gens []uint64, ids []int, digest string, devices int) error {
	walks := 0
	for _, st := range stats {
		if st.firstErr != nil {
			if isCheckError(st.firstErr) {
				return st.firstErr
			}
			return failCheck("serve-responses", "%d requests failed, first: %v", st.failed, st.firstErr)
		}
		walks += st.walks
	}
	for i, g := range gens {
		if g != uint64(i+2) {
			return failCheck("serve-generation", "reload %d swapped in generation %d, want %d", i+1, g, i+2)
		}
	}
	status, etag, err := c.get("/v1/summary", "")
	if err != nil {
		return err
	}
	gen, d, ok := etagGen(etag)
	if status != http.StatusOK || !ok || d != digest || gen != uint64(len(gens)+1) {
		return failCheck("serve-generation", "after %d reloads /v1/summary answered %d with validator %q", len(gens), status, etag)
	}
	var sum struct {
		Summary struct{ Total int } `json:"summary"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &sum); err != nil {
		return failCheck("serve-summary", "unparsable summary: %v", err)
	}
	if sum.Summary.Total != devices {
		return failCheck("serve-summary", "summary total %d, %d devices inferred", sum.Summary.Total, devices)
	}
	final := &loadStats{lastGen: gen}
	if err := final.walk(c, ids, digest); err != nil {
		return err
	}
	if final.firstErr != nil {
		return final.firstErr
	}
	if walks+final.walks == 0 {
		return failCheck("serve-cursor-walk", "no cursor walk completed")
	}
	return nil
}
