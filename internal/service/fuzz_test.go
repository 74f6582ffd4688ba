package service

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"d2m"
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
