package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"iotscope/internal/correlate"
	"iotscope/internal/devicedb"
	"iotscope/internal/flowtuple"
	"iotscope/internal/resultstore"
	"iotscope/internal/wgen"
)

// The oracles below recompute what they check from the inputs, or compare
// two independent paths through the program; none of them copies the
// output it judges.

// walkHours decodes every hour file of dir on one goroutine, handing each
// record batch to fn (which may be nil: a decode-only walk). It returns
// the records decoded and the sum of the files' footer record counts.
func walkHours(dir string, hours int, fn func([]flowtuple.Record)) (records, footer uint64, err error) {
	batch := make([]flowtuple.Record, flowtuple.BatchSize)
	for h := 0; h < hours; h++ {
		r, err := flowtuple.Open(flowtuple.HourPath(dir, h))
		if err != nil {
			return 0, 0, err
		}
		for {
			n, err := r.NextBatch(batch)
			records += uint64(n)
			if fn != nil && n > 0 {
				fn(batch[:n])
			}
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				r.Close()
				return 0, 0, fmt.Errorf("hour %d: %w", h, err)
			}
		}
		footer += uint64(r.Header().Count)
		r.Close()
	}
	return records, footer, nil
}

// joinPackets recounts per-device packet totals with a plain map join of
// record sources against the inventory.
func joinPackets(dir string, hours int, inv *devicedb.Inventory) (map[int]uint64, uint64, uint64, error) {
	byIP := make(map[uint32]int, inv.Len())
	for i, d := range inv.All() {
		byIP[uint32(d.IP)] = i
	}
	packets := make(map[int]uint64)
	records, footer, err := walkHours(dir, hours, func(batch []flowtuple.Record) {
		for i := range batch {
			if id, ok := byIP[batch[i].SrcIP]; ok {
				packets[id] += uint64(batch[i].Packets)
			}
		}
	})
	return packets, records, footer, err
}

// recordsIn is the correlator's own count of records it consumed.
func recordsIn(res *correlate.Result) uint64 {
	n := res.Background.Records
	for i := range res.Hourly {
		n += res.Hourly[i].RecordsIoT
	}
	return n
}

func checkFooters(decoded, footer uint64, res *correlate.Result) error {
	if decoded != footer {
		return failCheck("footer-records", "decoded %d records, footers say %d", decoded, footer)
	}
	if in := recordsIn(res); in != footer {
		return failCheck("footer-records", "correlator took in %d records (background + IoT), footers say %d", in, footer)
	}
	return nil
}

func checkJoin(packets map[int]uint64, res *correlate.Result) error {
	if len(packets) != len(res.Devices) {
		return failCheck("inventory-join", "map join found %d devices, result has %d", len(packets), len(res.Devices))
	}
	for id, want := range packets {
		d, ok := res.Devices[id]
		if !ok {
			return failCheck("inventory-join", "device %d sent traffic but was not inferred", id)
		}
		if got := d.TotalPackets(); got != want {
			return failCheck("inventory-join", "device %d: result counts %d packets, map join %d", id, got, want)
		}
	}
	return nil
}

func checkTruth(truth wgen.GroundTruth, hours int, res *correlate.Result) error {
	planted := make(map[int]bool, len(truth.Compromised))
	for _, id := range truth.Compromised {
		planted[id] = true
		if truth.OnsetHour[id] < hours {
			if _, ok := res.Devices[id]; !ok {
				return failCheck("truth", "planted device %d (onset hour %d) not recovered", id, truth.OnsetHour[id])
			}
		}
	}
	for id := range res.Devices {
		if !planted[id] {
			return failCheck("truth", "inferred device %d is not in the ground truth", id)
		}
	}
	return nil
}

func checkRoundTrip(saved, loaded *correlate.Result) error {
	a, err := resultstore.DigestResult(saved)
	if err != nil {
		return err
	}
	b, err := resultstore.DigestResult(loaded)
	if err != nil {
		return err
	}
	if a != b {
		return failCheck("store-roundtrip", "saved digest %08x, loaded %08x", a, b)
	}
	return nil
}

// checkSameExport compares two results' canonical exports byte for byte.
func checkSameExport(name string, got, want *correlate.ResultExport) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return failCheck(name, "export differs from the batch export (%d vs %d bytes)", len(g), len(w))
	}
	return nil
}

func sortedIDs(devices map[int]*correlate.DeviceStats) []int {
	ids := make([]int, 0, len(devices))
	for id := range devices {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
