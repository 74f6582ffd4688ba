package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"d2m"
	"d2m/internal/api"
)

// FuzzSweepRequest feeds arbitrary bytes through the POST /v1/sweeps
// decoding (the handler's decoder settings and body limit) and cell
// resolution, in both the grid and the explicit-cells form. Whatever
// the input, resolution must not panic, must stay within the cell cap,
// and every cell it accepts must be runnable as given: Options in
// canonical form and valid.
//
//	go test -run '^$' -fuzz FuzzSweepRequest -fuzztime 10s ./internal/service
func FuzzSweepRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		dec := json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxBodyBytes))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		cells, err := sweepCells(req)
		if err != nil {
			return
		}
		if len(cells) > d2m.DefaultSweepCells {
			t.Fatalf("%d cells, over the cap of %d", len(cells), d2m.DefaultSweepCells)
		}
		for i, c := range cells {
			if c.Options != c.Options.WithDefaults() {
				t.Fatalf("cell %d options not canonical: %+v", i, c.Options)
			}
			if err := c.Options.Validate(); err != nil {
				t.Fatalf("cell %d accepted with invalid options: %v", i, err)
			}
		}
	})
}

// FuzzReplayJournal feeds arbitrary bytes to ReplayJournal as a journal
// file, then reopens it for appending, appends one record and replays
// again — the restart path after a crash left who-knows-what on disk.
// Replay must not panic and must yield only keyed records; the second
// replay must start with the first one's records; and when every
// newline-terminated line of the input is blank or a valid record,
// the appended record must replay last.
//
//	go test -run '^$' -fuzz FuzzReplayJournal -fuzztime 10s ./internal/service
func FuzzReplayJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := ReplayJournal(path)
		if err != nil {
			return // a line over the scanner's cap
		}
		for i, rec := range first {
			if rec.Key == "" {
				t.Fatalf("record %d has no key", i)
			}
		}
		st, err := openResultStore(path)
		if err != nil {
			t.Fatal(err)
		}
		appended := StoreRecord{Key: "fuzz-appended", Kind: "Base-2L", Benchmark: "tpc-c"}
		if err := st.append(appended); err != nil {
			t.Fatal(err)
		}
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
		second, err := ReplayJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(second) < len(first) || len(first) > 0 && !reflect.DeepEqual(second[:len(first)], first) {
			t.Fatalf("second replay %+v does not start with the first %+v", second, first)
		}
		lines := bytes.Split(data, []byte("\n"))
		for _, line := range lines[:len(lines)-1] {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if _, ok := parseRecord(line); len(line) > 0 && !ok {
				return // replay stops at this line, before any append
			}
		}
		if len(second) == 0 || second[len(second)-1].Key != appended.Key {
			t.Fatalf("appended record not replayed last: %+v", second)
		}
	})
}

// FuzzRunRequest feeds arbitrary bytes through the POST /v1/run and
// POST /v1/batch body decoding (the handlers' decode and body caps),
// then newRun per run. Whatever the input, nothing may panic, a run
// newRun rejects must be answered 400, and a run it accepts must carry
// canonical, valid Options and a cache key that survives a re-marshal
// and re-decode of its request.
//
//	go test -run '^$' -fuzz FuzzRunRequest -fuzztime 10s ./internal/service
func FuzzRunRequest(f *testing.F) {
	check := func(t *testing.T, req api.RunRequest) {
		run, err := newRun(req)
		if err != nil {
			var ae *api.Error
			if !errors.As(err, &ae) || ae.Code.HTTPStatus() != http.StatusBadRequest {
				t.Fatalf("rejected run not answered 400: %v", err)
			}
			return
		}
		if run.Options != run.Options.WithDefaults() {
			t.Fatalf("options not canonical: %+v", run.Options)
		}
		if err := run.Options.Validate(); err != nil {
			t.Fatalf("run accepted with invalid options: %v", err)
		}
		if err := d2m.CheckBenchmark(run.Bench, run.Options); err != nil {
			t.Fatalf("run accepted with a benchmark its options cannot run: %v", err)
		}
		body, err := json.Marshal(run.Req)
		if err != nil {
			t.Fatal(err)
		}
		var again api.RunRequest
		if !decodeBody(body, maxBodyBytes, &again) {
			t.Fatalf("re-marshalled request %s does not decode", body)
		}
		rerun, err := newRun(again)
		if err != nil {
			t.Fatalf("re-marshalled request %s rejected: %v", body, err)
		}
		if rerun.CacheKey() != run.CacheKey() {
			t.Fatalf("cache key changed across a re-marshal of %s", body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req api.RunRequest
		if decodeBody(body, maxBodyBytes, &req) {
			check(t, req)
		}
		var batch BatchRequest
		if decodeBody(body, maxBatchBodyBytes, &batch) && len(batch.Runs) <= MaxBatchRuns {
			for _, rr := range batch.Runs {
				check(t, rr)
			}
		}
	})
}

// decodeBody runs body through the handlers' decode with limit,
// reporting whether it was accepted.
func decodeBody(body []byte, limit int64, v interface{}) bool {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	return decode(httptest.NewRecorder(), r, limit, v)
}
