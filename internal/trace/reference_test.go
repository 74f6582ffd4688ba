package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"d2m/internal/mem"
)

// Reference implementations the tests compare the production codecs
// against: the v1 writer (production code only reads v1), and a
// record-at-a-time v2 encoder and binary.Uvarint decoder, simple enough
// to check by reading.

// Writer streams accesses to an io.Writer in the v1 binary format.
type Writer struct {
	w   *bufio.Writer
	n   uint64
	err error
}

// NewWriter writes the v1 header and returns a trace writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Append writes one access record.
func (tw *Writer) Append(a mem.Access) error {
	if tw.err != nil {
		return tw.err
	}
	var rec [recordBytes]byte
	rec[0] = byte(a.Node)
	rec[1] = byte(a.Kind)
	binary.LittleEndian.PutUint64(rec[2:], uint64(a.Addr))
	if _, err := tw.w.Write(rec[:]); err != nil {
		tw.err = fmt.Errorf("trace: writing record: %w", err)
		return tw.err
	}
	tw.n++
	return nil
}

// Count returns the number of records written.
func (tw *Writer) Count() uint64 { return tw.n }

// Flush flushes buffered records.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.w.Flush()
}

// refEncodeV2 encodes accs as a v2 file one record at a time, with a
// CRC update per record. Accesses must be valid (node < MaxTraceNodes,
// kind <= Store).
func refEncodeV2(accs []mem.Access) []byte {
	out := append([]byte{}, traceMagicV2[:]...)
	var (
		crc     uint32
		last    [MaxTraceNodes]uint64
		maxNode int
	)
	for _, a := range accs {
		var rec [maxRecordBytes]byte
		rec[0] = byte(a.Kind) | byte(a.Node)<<2
		d := int64(uint64(a.Addr) - last[a.Node])
		n := 1 + binary.PutUvarint(rec[1:], zigzag(d))
		last[a.Node] = uint64(a.Addr)
		crc = crc32.Update(crc, crc32.IEEETable, rec[:n])
		out = append(out, rec[:n]...)
		if a.Node > maxNode {
			maxNode = a.Node
		}
	}
	var ft [footerBytes]byte
	copy(ft[:8], footerMagic[:])
	ft[8] = byte(maxNode)
	binary.LittleEndian.PutUint32(ft[12:16], crc)
	binary.LittleEndian.PutUint64(ft[16:24], uint64(len(accs)))
	return append(out, ft[:]...)
}

// refDecodeV2 decodes one v2 record with binary.Uvarint.
func refDecodeV2(b []byte, last *[MaxTraceNodes]uint64) (mem.Access, int, error) {
	ctrl := b[0]
	kind := mem.Kind(ctrl & 3)
	if kind > mem.Store {
		return mem.Access{}, 0, fmt.Errorf("invalid kind %d in record", ctrl&3)
	}
	node := int(ctrl >> 2)
	u, n := binary.Uvarint(b[1:])
	if n <= 0 {
		return mem.Access{}, 0, fmt.Errorf("truncated or oversized address varint")
	}
	addr := last[node] + uint64(unzigzag(u))
	last[node] = addr
	return mem.Access{Node: node, Kind: kind, Addr: mem.Addr(addr)}, 1 + n, nil
}

// refDecode decodes a whole trace file of either version record by
// record. For v2 it checks the footer's count and CRC but, unlike the
// production readers, accepts a footer max node above the records'.
func refDecode(data []byte) ([]mem.Access, error) {
	if len(data) < headerBytes {
		return nil, fmt.Errorf("short file")
	}
	body := data[headerBytes:]
	var out []mem.Access
	switch string(data[:headerBytes]) {
	case string(traceMagic[:]):
		if len(body)%recordBytes != 0 {
			return nil, fmt.Errorf("torn v1 file")
		}
		for off := 0; off < len(body); off += recordBytes {
			rec := body[off : off+recordBytes]
			if mem.Kind(rec[1]) > mem.Store {
				return nil, fmt.Errorf("record %d has invalid kind %d", len(out), rec[1])
			}
			out = append(out, mem.Access{Node: int(rec[0]), Kind: mem.Kind(rec[1]), Addr: mem.Addr(binary.LittleEndian.Uint64(rec[2:]))})
		}
	case string(traceMagicV2[:]):
		if len(body) < footerBytes {
			return nil, fmt.Errorf("missing footer")
		}
		count, maxNode, crc, err := parseFooter(body[len(body)-footerBytes:])
		if err != nil {
			return nil, err
		}
		body = body[:len(body)-footerBytes]
		if crc32.ChecksumIEEE(body) != crc {
			return nil, fmt.Errorf("CRC mismatch")
		}
		var last [MaxTraceNodes]uint64
		for off := 0; off < len(body); {
			a, n, err := refDecodeV2(body[off:], &last)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", len(out), err)
			}
			if a.Node > maxNode {
				return nil, fmt.Errorf("record %d on node %d above footer max %d", len(out), a.Node, maxNode)
			}
			out = append(out, a)
			off += n
		}
		if uint64(len(out)) != count {
			return nil, fmt.Errorf("decoded %d records but footer says %d", len(out), count)
		}
	default:
		return nil, fmt.Errorf("bad magic")
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	return out, nil
}
