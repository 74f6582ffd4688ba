package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"d2m/internal/mem"
)

// FuzzTraceFile feeds arbitrary bytes to Validate, the ingest gate for
// uploaded traces. Whenever Validate accepts a file, the in-memory
// ReadTrace must accept it too with the same record count, a FileReader
// replay must yield the same accesses in the same order, none on a node
// above the summary's MaxNode, and the record-at-a-time reference
// decoder must agree with both.
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
		ref, err := refDecode(data)
		if err != nil {
			t.Fatalf("Validate accepted but the reference decoder rejected: %v", err)
		}
		if uint64(len(ref)) != sum.Count {
			t.Fatalf("reference decoded %d records, Validate counted %d", len(ref), sum.Count)
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
			if want := r.Next(); a != want || a != ref[i] {
				t.Fatalf("record %d: FileReader %+v, ReadTrace %+v, reference %+v", i, a, want, ref[i])
			}
			if a.Node > sum.MaxNode {
				t.Fatalf("record %d on node %d, above MaxNode %d", i, a.Node, sum.MaxNode)
			}
		}
	})
}

// fuzzAccesses decodes fuzz bytes into an access sequence. The first
// byte repeats the sequence 2^(b%12) times, so a short input can span
// many writer and reader chunks. Each access then takes a byte for its
// node (low 6 bits) and kind (high 2 bits, mod 3) and a byte whose low
// 4 bits say how many address bytes follow (0-8, little-endian). Bit 4
// adds them to the node's last address, bit 5 subtracts them, and
// neither sets the address outright.
func fuzzAccesses(data []byte) []mem.Access {
	if len(data) == 0 {
		return nil
	}
	reps := 1 << (data[0] % 12)
	data = data[1:]
	var (
		seq  []mem.Access
		last [MaxTraceNodes]uint64
	)
	for len(data) >= 2 {
		node, kind, mode := int(data[0]&63), mem.Kind(data[0]>>6%3), data[1]
		data = data[2:]
		var raw [8]byte
		data = data[copy(raw[:min(int(mode&15), 8)], data):]
		v := binary.LittleEndian.Uint64(raw[:])
		switch {
		case mode&0x10 != 0:
			v = last[node] + v
		case mode&0x20 != 0:
			v = last[node] - v
		}
		last[node] = v
		seq = append(seq, mem.Access{Node: node, Kind: kind, Addr: mem.Addr(v)})
	}
	reps = min(reps, (1<<18)/max(len(seq), 1))
	out := make([]mem.Access, 0, len(seq)*reps)
	for i := 0; i < reps; i++ {
		out = append(out, seq...)
	}
	return out
}

// FuzzTraceRoundTrip checks the codecs against the reference: the
// chunked FileWriter must produce the per-record reference encoder's
// bytes exactly, and ReadTrace, Validate and a FileReader replay must
// all return the encoded sequence.
//
//	go test -run '^$' -fuzz FuzzTraceRoundTrip -fuzztime 10s ./internal/trace
func FuzzTraceRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		accs := fuzzAccesses(data)
		var buf bytes.Buffer
		fw, err := NewFileWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		maxNode := 0
		for _, a := range accs {
			if err := fw.Append(a); err != nil {
				t.Fatal(err)
			}
			maxNode = max(maxNode, a.Node)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		if ref := refEncodeV2(accs); !bytes.Equal(enc, ref) {
			t.Fatalf("FileWriter wrote %d bytes that differ from the reference's %d", len(enc), len(ref))
		}
		if len(accs) == 0 {
			return // an empty trace is rejected by every reader
		}

		r, err := ReadTrace(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("ReadTrace: %v", err)
		}
		if r.Len() != len(accs) {
			t.Fatalf("ReadTrace has %d records, want %d", r.Len(), len(accs))
		}
		sum, err := Validate(bytes.NewReader(enc), int64(len(enc)))
		if err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if want := (Summary{Version: 2, Count: uint64(len(accs)), MaxNode: maxNode}); sum != want {
			t.Fatalf("Validate = %+v, want %+v", sum, want)
		}
		fr, err := NewFileReader(bytes.NewReader(enc), int64(len(enc)))
		if err != nil {
			t.Fatalf("NewFileReader: %v", err)
		}
		// An odd block size makes blocks straddle the reader's chunks.
		block := make([]mem.Access, 333)
		for i := 0; i < len(accs); {
			n := fr.Fill(block)
			if n == 0 {
				t.Fatalf("FileReader ended after %d of %d records", i, len(accs))
			}
			for k, a := range block[:n] {
				if want := accs[i+k]; a != want || r.Next() != want {
					t.Fatalf("record %d: FileReader %+v, want %+v", i+k, a, want)
				}
			}
			i += n
		}
		if n := fr.Fill(block); n != 0 {
			t.Fatalf("FileReader replayed %d records past the end", n)
		}
	})
}

// TestUvarintMatchesReference checks the branch-free varint path
// against binary.Uvarint, alone and through the record decoder, over
// varints of every length from 1 to 10 bytes, overlong and overflowing
// encodings, and every buffer length down to empty.
func TestUvarintMatchesReference(t *testing.T) {
	var cases [][]byte
	for bitLen := 0; bitLen <= 64; bitLen++ {
		for _, v := range []uint64{1<<bitLen - 1, 1 << bitLen >> 1, 0x5555555555555555 >> (64 - bitLen)} {
			enc := binary.AppendUvarint(nil, v)
			cases = append(cases, enc)
			// Overlong: the same value with zero groups appended.
			for extra := 1; len(enc)+extra <= 11; extra++ {
				long := append([]byte{}, enc...)
				long[len(long)-1] |= 0x80
				for i := 1; i < extra; i++ {
					long = append(long, 0x80)
				}
				cases = append(cases, append(long, 0))
			}
		}
	}
	// Overflowing: a 10th byte above 1, and 11 or more bytes.
	cases = append(cases,
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
		bytes.Repeat([]byte{0xff}, 16))
	pads := [][]byte{nil, {0xff}, bytes.Repeat([]byte{0xaa}, 10)}

	for _, c := range cases {
		for _, pad := range pads {
			full := append(append([]byte{}, c...), pad...)
			for cut := 0; cut <= len(full); cut++ {
				b := full[:cut]
				wantU, wantN := binary.Uvarint(b)
				if len(b) >= 8 {
					u, n := uvarint8(binary.LittleEndian.Uint64(b))
					switch {
					case n > 0 && (u != wantU || n != wantN):
						t.Fatalf("uvarint8(% x) = %d, %d; Uvarint = %d, %d", b[:8], u, n, wantU, wantN)
					case n == 0 && wantN >= 1 && wantN <= 8:
						t.Fatalf("uvarint8(% x) fell back on a %d-byte varint", b[:8], wantN)
					}
				}
				// The same bytes as one record, decoded as the last
				// chunk of a body.
				rec := append([]byte{byte(mem.Store) | 5<<2}, b...)
				var last [MaxTraceNodes]uint64
				want, wantLen, wantErr := refDecodeV2(rec, &last)
				d := decoder{version: 2}
				var out [1]mem.Access
				n, used, err := d.decode(out[:], rec, true)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("decode(% x): err %v, reference err %v", rec, err, wantErr)
				}
				if err == nil && (n != 1 || used != wantLen || out[0] != want) {
					t.Fatalf("decode(% x) = %+v, %d records, %d bytes; reference %+v, %d bytes",
						rec, out[0], n, used, want, wantLen)
				}
			}
		}
	}
}

// TestCodecZeroAllocs pins the hot paths allocation-free: Append,
// including the chunk flushes, and a warmed FileReader's Fill, including
// refills and Loop rewinds.
func TestCodecZeroAllocs(t *testing.T) {
	accs := randomAccesses(1<<12, 8, 9)
	fw, err := NewFileWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	// About 9 bytes a record: 20k appends flush the chunk twice.
	if n := testing.AllocsPerRun(20_000, func() {
		if err := fw.Append(accs[i%len(accs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("FileWriter.Append: %v allocs per record, want 0", n)
	}

	enc := writeV2(t, randomAccesses(100_000, 8, 10))
	fr, err := NewFileReader(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	fr.Loop = true
	block := make([]mem.Access, 1024)
	fr.Fill(block) // allocates the read buffer
	if n := testing.AllocsPerRun(300, func() { fr.Fill(block) }); n != 0 {
		t.Errorf("FileReader.Fill: %v allocs per block, want 0", n)
	}
}
