package trace

import (
	"bytes"
	"testing"

	"d2m/internal/mem"
)

// FuzzTraceFile feeds arbitrary bytes to Validate, the ingest gate for
// uploaded traces. Whenever Validate accepts a file, the in-memory
// ReadTrace must accept it too with the same record count, and a
// FileReader replay must yield the same accesses in the same order,
// none on a node above the summary's MaxNode.
//
//	go test -run '^$' -fuzz FuzzTraceFile -fuzztime 10s ./internal/trace
func FuzzTraceFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := Validate(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		r, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Validate accepted (%+v) but ReadTrace rejected: %v", sum, err)
		}
		if uint64(r.Len()) != sum.Count {
			t.Fatalf("ReadTrace has %d records, Validate counted %d", r.Len(), sum.Count)
		}
		fr, err := NewFileReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("Validate accepted but NewFileReader rejected: %v", err)
		}
		got := make([]mem.Access, sum.Count+1)
		if n := fr.Fill(got); uint64(n) != sum.Count {
			t.Fatalf("FileReader replayed %d records, Validate counted %d", n, sum.Count)
		}
		for i, a := range got[:sum.Count] {
			if want := r.Next(); a != want {
				t.Fatalf("record %d: FileReader %+v, ReadTrace %+v", i, a, want)
			}
			if a.Node > sum.MaxNode {
				t.Fatalf("record %d on node %d, above MaxNode %d", i, a.Node, sum.MaxNode)
			}
		}
	})
}
