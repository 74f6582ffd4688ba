package trace

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"d2m/internal/mem"
)

// benchRecords is the record count each benchmark iteration encodes or
// decodes.
const benchRecords = 1 << 16

// benchAccesses is a two-node access mix shaped like a captured
// workload: mostly short per-node strides, some nearby jumps and a few
// far ones, so records span the 2-9 byte range with 2-4 bytes common.
func benchAccesses(n int) []mem.Access {
	rng := rand.New(rand.NewSource(1))
	var last [2]uint64
	out := make([]mem.Access, n)
	for i := range out {
		node := i & 1
		switch r := rng.Intn(10); {
		case r < 7:
			last[node] += 64
		case r < 9:
			last[node] += uint64(rng.Intn(1<<20)) &^ 63
		default:
			last[node] = rng.Uint64() >> 16 &^ 63
		}
		out[i] = mem.Access{Node: node, Kind: mem.Kind(rng.Intn(3)), Addr: mem.Addr(last[node])}
	}
	return out
}

// benchTrace returns benchAccesses encoded as a v2 file.
func benchTrace(b *testing.B) []byte {
	var buf bytes.Buffer
	fw, err := NewFileWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range benchAccesses(benchRecords) {
		if err := fw.Append(a); err != nil {
			b.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func reportPerRecord(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRecords, "ns/record")
}

// BenchmarkTraceEncode times FileWriter.Append and Close.
func BenchmarkTraceEncode(b *testing.B) {
	accs := benchAccesses(benchRecords)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw, err := NewFileWriter(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range accs {
			if err := fw.Append(a); err != nil {
				b.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b)
}

// BenchmarkTraceDecode times a FileReader replay in 1024-access blocks.
func BenchmarkTraceDecode(b *testing.B) {
	enc := benchTrace(b)
	out := make([]mem.Access, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := NewFileReader(bytes.NewReader(enc), int64(len(enc)))
		if err != nil {
			b.Fatal(err)
		}
		for fr.Fill(out) > 0 {
		}
	}
	reportPerRecord(b)
}

// BenchmarkTraceValidate times the ingest gate.
func BenchmarkTraceValidate(b *testing.B) {
	enc := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Validate(bytes.NewReader(enc), int64(len(enc))); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b)
}
