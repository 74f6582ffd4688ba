package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"strconv"
	"strings"

	"d2m/internal/mem"
)

// Binary trace formats.
//
// v1 (legacy, still readable): an 8-byte header ("D2MTRC" + 2-byte
// version) followed by fixed 10-byte records: node (uint8), kind
// (uint8), address (uint64 little-endian). Trivial, but 10 bytes per
// access and no way to tell a torn file from a complete one.
//
// v2 (current, what Writer-side APIs produce): the same 8-byte header
// with version 2, then one variable-length record per access — a
// control byte (kind in bits 0-1, node in bits 2-7) followed by the
// zigzag-varint delta of the address against the SAME NODE's previous
// address. Per-node deltas make both the instruction stream (mostly
// +1 line) and strided data streams encode in 2-3 bytes instead of 10.
// The file ends in a fixed 24-byte footer carrying the record count,
// the largest node id and a CRC-32 of the record bytes, so torn or
// truncated files are rejected (no footer) and bit rot is caught at
// ingest (CRC mismatch).
var (
	traceMagic   = [8]byte{'D', '2', 'M', 'T', 'R', 'C', 0, 1}
	traceMagicV2 = [8]byte{'D', '2', 'M', 'T', 'R', 'C', 0, 2}
	footerMagic  = [8]byte{'D', '2', 'M', 'E', 'N', 'D', 0, 2}
)

const (
	recordBytes = 10 // v1 fixed record size
	headerBytes = 8
	// footerBytes is the v2 trailer: magic (8), max node (1), zero pad
	// (3), CRC-32/IEEE of the record bytes (4), record count (8).
	footerBytes = 24
	// maxRecordBytes bounds one v2 record: control byte + 10-byte
	// varint.
	maxRecordBytes = 11
	// MaxTraceNodes bounds node ids representable in the v2 control
	// byte (6 bits). The simulator itself caps machines at 8 nodes.
	MaxTraceNodes = 64
)

// zigzag encodes a signed delta as an unsigned varint payload.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// writeChunkBytes is FileWriter's output granularity: records
// accumulate in one chunk, which is checksummed and written whole.
const writeChunkBytes = 64 << 10

// FileWriter streams accesses to an io.Writer in the v2 binary format.
// Records are appended to one reusable chunk; each full chunk costs one
// CRC update and one Write, so Append itself neither allocates nor
// calls the underlying writer. Close writes the footer; a file without
// one is rejected by every reader, which is what makes torn writes
// detectable.
type FileWriter struct {
	w       io.Writer
	buf     []byte // pending record bytes
	crc     uint32
	last    [MaxTraceNodes]uint64
	n       uint64
	maxNode int
	err     error
}

// NewFileWriter writes the v2 header and returns the writer.
func NewFileWriter(w io.Writer) (*FileWriter, error) {
	if _, err := w.Write(traceMagicV2[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	// The footer shares the final chunk's Write.
	return &FileWriter{w: w, buf: make([]byte, 0, writeChunkBytes+footerBytes)}, nil
}

// Append writes one access record.
func (fw *FileWriter) Append(a mem.Access) error {
	if fw.err != nil {
		return fw.err
	}
	if a.Node < 0 || a.Node >= MaxTraceNodes {
		fw.err = fmt.Errorf("trace: node %d out of range 0..%d", a.Node, MaxTraceNodes-1)
		return fw.err
	}
	if a.Kind > mem.Store {
		fw.err = fmt.Errorf("trace: invalid access kind %d", a.Kind)
		return fw.err
	}
	d := int64(uint64(a.Addr) - fw.last[a.Node])
	fw.last[a.Node] = uint64(a.Addr)
	fw.buf = append(fw.buf, byte(a.Kind)|byte(a.Node)<<2)
	fw.buf = binary.AppendUvarint(fw.buf, zigzag(d))
	fw.n++
	fw.maxNode = max(fw.maxNode, a.Node)
	if len(fw.buf) > writeChunkBytes-maxRecordBytes {
		return fw.flush()
	}
	return nil
}

// flush checksums and writes the pending records.
func (fw *FileWriter) flush() error {
	fw.crc = crc32.Update(fw.crc, crc32.IEEETable, fw.buf)
	if _, err := fw.w.Write(fw.buf); err != nil {
		fw.err = fmt.Errorf("trace: writing records: %w", err)
		return fw.err
	}
	fw.buf = fw.buf[:0]
	return nil
}

// Count returns the number of records written.
func (fw *FileWriter) Count() uint64 { return fw.n }

// Close writes the remaining records and the footer. The writer is
// unusable after.
func (fw *FileWriter) Close() error {
	if fw.err != nil {
		return fw.err
	}
	fw.crc = crc32.Update(fw.crc, crc32.IEEETable, fw.buf)
	var ft [footerBytes]byte
	copy(ft[:8], footerMagic[:])
	ft[8] = byte(fw.maxNode)
	binary.LittleEndian.PutUint32(ft[12:16], fw.crc)
	binary.LittleEndian.PutUint64(ft[16:24], fw.n)
	if _, err := fw.w.Write(append(fw.buf, ft[:]...)); err != nil {
		return fmt.Errorf("trace: writing footer: %w", err)
	}
	return nil
}

// uvarint8 decodes the varint held in the little-endian bytes of x
// without branching on its bytes: the first clear continuation bit is
// found by TrailingZeros64, the bytes above it are masked off and the
// 7-bit groups are compacted in three shift-and-mask steps. It returns
// n = 0 when the varint does not end within the 8 bytes. Where it
// returns n > 0 the result equals binary.Uvarint's on the same bytes.
func uvarint8(x uint64) (u uint64, n int) {
	stops := ^x & 0x8080808080808080
	if stops == 0 {
		return 0, 0
	}
	x &= stops ^ (stops - 1)
	x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
	x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
	x = x&0x000000000fffffff | x&0x0fffffff00000000>>4
	return x, bits.TrailingZeros64(stops)>>3 + 1
}

// decoder is the one record decoder behind ReadTrace, Validate and
// FileReader, for both format versions. It carries the per-node address
// state across chunks.
type decoder struct {
	version int
	last    [MaxTraceNodes]uint64
	count   uint64 // records decoded
	maxNode int    // largest node id decoded
}

// decode decodes records from b into out until out is full or b runs
// short, and returns the records decoded and the bytes consumed. final
// says b holds the rest of the body: without it, decode stops before a
// record that may straddle the end of b, so the caller can append the
// next chunk; with it, a partial record at the end is an error.
func (d *decoder) decode(out []mem.Access, b []byte, final bool) (n, used int, err error) {
	if d.version == 1 {
		for ; n < len(out) && len(b)-used >= recordBytes; n++ {
			rec := b[used : used+recordBytes]
			if rec[1] > byte(mem.Store) {
				return n, used, fmt.Errorf("trace: record %d has invalid kind %d", d.count, rec[1])
			}
			out[n] = mem.Access{Node: int(rec[0]), Kind: mem.Kind(rec[1]), Addr: mem.Addr(binary.LittleEndian.Uint64(rec[2:]))}
			d.maxNode = max(d.maxNode, int(rec[0]))
			d.count++
			used += recordBytes
		}
		if final && n < len(out) && used < len(b) {
			return n, used, fmt.Errorf("trace: torn v1 file: partial trailing record")
		}
		return n, used, nil
	}
	maxNode := d.maxNode
	for ; n < len(out) && used < len(b); n++ {
		if len(b)-used < maxRecordBytes && !final {
			break // the record may straddle the chunk boundary
		}
		ctrl := b[used]
		if ctrl&3 > byte(mem.Store) {
			return n, used, fmt.Errorf("trace: record %d: invalid kind %d", d.count+uint64(n), ctrl&3)
		}
		// A whole record is buffered: the varint's first 8 bytes are
		// loadable, and only a longer varint takes binary.Uvarint.
		var u uint64
		k := 0
		if len(b)-used >= maxRecordBytes {
			u, k = uvarint8(binary.LittleEndian.Uint64(b[used+1:]))
		}
		if k == 0 {
			if u, k = binary.Uvarint(b[used+1:]); k <= 0 {
				return n, used, fmt.Errorf("trace: record %d: truncated or oversized address varint", d.count+uint64(n))
			}
		}
		node := int(ctrl >> 2)
		addr := d.last[node] + uint64(unzigzag(u))
		d.last[node] = addr
		out[n] = mem.Access{Node: node, Kind: mem.Kind(ctrl & 3), Addr: mem.Addr(addr)}
		maxNode = max(maxNode, node)
		used += 1 + k
	}
	d.count += uint64(n)
	d.maxNode = maxNode
	return n, used, nil
}

// parseFooter validates a v2 trailer and returns its fields.
func parseFooter(ft []byte) (count uint64, maxNode int, crc uint32, err error) {
	if len(ft) != footerBytes || string(ft[:8]) != string(footerMagic[:]) {
		return 0, 0, 0, fmt.Errorf("trace: missing footer (file is torn, truncated or not a trace)")
	}
	return binary.LittleEndian.Uint64(ft[16:24]), int(ft[8]),
		binary.LittleEndian.Uint32(ft[12:16]), nil
}

// Reader replays a fully in-memory trace.
type Reader struct {
	records []mem.Access
	pos     int
	// Loop makes Next wrap around at the end instead of panicking,
	// allowing warmup+measure windows longer than the trace.
	Loop bool
}

// ReadTrace loads an entire trace (either format version) into memory.
// v2 payloads are CRC-checked; a missing or malformed footer, a record
// count or max node that does not match, or trailing bytes all reject
// the file — the torn-write guarantees the chunked FileReader gets from
// ingest validation hold here directly.
func ReadTrace(r io.Reader) (*Reader, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	if len(data) < headerBytes {
		return nil, fmt.Errorf("trace: short file (%d bytes)", len(data))
	}
	var (
		d       decoder
		body    = data[headerBytes:]
		count   uint64
		maxNode int
	)
	switch {
	case string(data[:headerBytes]) == string(traceMagic[:]):
		d.version = 1
		if len(body)%recordBytes != 0 {
			return nil, fmt.Errorf("trace: torn v1 file: %d trailing bytes after the last whole record", len(body)%recordBytes)
		}
		count = uint64(len(body) / recordBytes)
	case string(data[:headerBytes]) == string(traceMagicV2[:]):
		d.version = 2
		if len(body) < footerBytes {
			return nil, fmt.Errorf("trace: missing footer (file is torn, truncated or not a trace)")
		}
		var crc uint32
		count, maxNode, crc, err = parseFooter(body[len(body)-footerBytes:])
		if err != nil {
			return nil, err
		}
		body = body[:len(body)-footerBytes]
		if got := crc32.ChecksumIEEE(body); got != crc {
			return nil, fmt.Errorf("trace: body CRC mismatch (got %08x, footer says %08x)", got, crc)
		}
		// Every v2 record takes at least 2 bytes; this bounds the
		// allocation below by the file size.
		if count > uint64(len(body)/2) {
			return nil, fmt.Errorf("trace: footer claims %d records in a %d-byte body", count, len(body))
		}
	default:
		return nil, fmt.Errorf("trace: bad magic %q", data[:headerBytes])
	}
	if count == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	out := &Reader{records: make([]mem.Access, count)}
	n, used, err := d.decode(out.records, body, true)
	if err != nil {
		return nil, err
	}
	if uint64(n) != count || used != len(body) {
		return nil, fmt.Errorf("trace: body does not hold exactly the footer's %d records", count)
	}
	if d.version == 2 && d.maxNode != maxNode {
		return nil, fmt.Errorf("trace: max node %d does not match footer's %d", d.maxNode, maxNode)
	}
	return out, nil
}

// Len returns the number of records.
func (r *Reader) Len() int { return len(r.records) }

// Next returns the next recorded access, wrapping if Loop is set.
func (r *Reader) Next() mem.Access {
	if r.pos >= len(r.records) {
		if !r.Loop {
			panic("trace: replay ran past the end of the trace (set Loop to wrap)")
		}
		r.pos = 0
	}
	a := r.records[r.pos]
	r.pos++
	return a
}

// Fill implements Stream: batched Next. Without Loop it returns
// short counts at the end of the trace and 0 once exhausted.
func (r *Reader) Fill(buf []mem.Access) int {
	i := 0
	for i < len(buf) {
		if r.pos >= len(r.records) {
			if !r.Loop {
				return i
			}
			r.pos = 0
		}
		n := copy(buf[i:], r.records[r.pos:])
		i += n
		r.pos += n
	}
	return i
}

// Clone returns an independent reader continuing the identical sequence
// from the current position (the records are shared, the cursor is not).
func (r *Reader) Clone() Stream {
	cp := *r
	return &cp
}

// MaxNode returns the largest node id appearing in the trace.
func (r *Reader) MaxNode() int {
	max := 0
	for _, a := range r.records {
		if a.Node > max {
			max = a.Node
		}
	}
	return max
}

// Summary describes a validated trace file.
type Summary struct {
	// Version is the format version (1 or 2).
	Version int
	// Count is the number of access records.
	Count uint64
	// MaxNode is the largest node id used.
	MaxNode int
}

// Validate fully checks a trace file through an io.ReaderAt without
// loading it into memory: header, every record, and (v2) the footer's
// count, max-node and CRC against the actual body. This is the ingest
// gate — once a file passes, FileReader can replay it without
// re-verifying.
func Validate(src io.ReaderAt, size int64) (Summary, error) {
	fr, err := NewFileReader(src, size)
	if err != nil {
		return Summary{}, err
	}
	var crc uint32
	d := decoder{version: fr.version}
	buf := make([]byte, fileChunkBytes)
	out := make([]mem.Access, 1024)
	tail := 0 // undecoded bytes carried from the previous chunk
	for off := int64(0); off < fr.bodyLen; {
		want := int64(len(buf) - tail)
		if rem := fr.bodyLen - off; want > rem {
			want = rem
		}
		n, err := src.ReadAt(buf[tail:tail+int(want)], fr.bodyOff+off)
		if n != int(want) {
			return Summary{}, fmt.Errorf("trace: reading body at %d: %w", off, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[tail:tail+n])
		off += int64(n)
		avail, pos := tail+n, 0
		for {
			k, used, err := d.decode(out, buf[pos:avail], off == fr.bodyLen)
			if err != nil {
				return Summary{}, err
			}
			pos += used
			if k < len(out) {
				break
			}
		}
		tail = copy(buf, buf[pos:avail])
	}
	if d.count != fr.count {
		return Summary{}, fmt.Errorf("trace: decoded %d records but expected %d", d.count, fr.count)
	}
	if fr.version == 2 {
		if crc != fr.crc {
			return Summary{}, fmt.Errorf("trace: body CRC mismatch (got %08x, footer says %08x)", crc, fr.crc)
		}
		if d.maxNode != fr.maxNode {
			return Summary{}, fmt.Errorf("trace: max node %d does not match footer's %d", d.maxNode, fr.maxNode)
		}
	}
	return Summary{Version: fr.version, Count: d.count, MaxNode: d.maxNode}, nil
}

// fileChunkBytes is FileReader's read granularity. It bounds the
// reader's resident memory regardless of trace size: a multi-GiB trace
// replays through this one buffer.
const fileChunkBytes = 256 << 10

// FileReader replays a trace file through chunked positional reads —
// the whole file is never resident, so multi-GiB traces replay with a
// fixed memory footprint. It implements Stream and Cloner;
// clones share the underlying io.ReaderAt (concurrent use is safe when
// the source's ReadAt is, as os.File's is) but carry their own cursor
// and buffer, which is what lets warm-state snapshots freeze a replay
// mid-trace.
type FileReader struct {
	src     io.ReaderAt
	version int
	bodyOff int64
	bodyLen int64
	count   uint64
	maxNode int
	crc     uint32 // v2 footer CRC (checked by Validate, not per-replay)

	// Loop makes the reader wrap at the end instead of reporting
	// exhaustion, for warmup+measure windows longer than the trace.
	Loop bool

	pos int64   // body offset of the next undecoded byte
	dec decoder // this pass's decoder state

	buf    []byte
	bufPos int // next undecoded byte within buf
	bufLen int // valid bytes in buf
}

// NewFileReader opens a trace file (either version) over a positional
// reader. The header and (v2) footer are validated here — torn or
// truncated files are rejected — but the body is only decoded as it is
// replayed; run Validate first on untrusted files.
func NewFileReader(src io.ReaderAt, size int64) (*FileReader, error) {
	var hdr [headerBytes]byte
	if size < headerBytes {
		return nil, fmt.Errorf("trace: short file (%d bytes)", size)
	}
	if n, err := src.ReadAt(hdr[:], 0); n != headerBytes {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	fr := &FileReader{src: src, bodyOff: headerBytes}
	switch {
	case hdr == traceMagic:
		fr.version = 1
		fr.bodyLen = size - headerBytes
		if fr.bodyLen%recordBytes != 0 {
			return nil, fmt.Errorf("trace: torn v1 file: %d trailing bytes after the last whole record", fr.bodyLen%recordBytes)
		}
		fr.count = uint64(fr.bodyLen / recordBytes)
		fr.maxNode = MaxTraceNodes - 1 // v1 carries no footer; unknown until read
	case hdr == traceMagicV2:
		fr.version = 2
		if size < headerBytes+footerBytes {
			return nil, fmt.Errorf("trace: missing footer (file is torn, truncated or not a trace)")
		}
		var ft [footerBytes]byte
		if n, err := src.ReadAt(ft[:], size-footerBytes); n != footerBytes {
			return nil, fmt.Errorf("trace: reading footer: %w", err)
		}
		count, maxNode, crc, err := parseFooter(ft[:])
		if err != nil {
			return nil, err
		}
		fr.bodyLen = size - headerBytes - footerBytes
		fr.count, fr.maxNode, fr.crc = count, maxNode, crc
	default:
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:])
	}
	if fr.count == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	fr.dec.version = fr.version
	return fr, nil
}

// Len returns the number of records in the trace.
func (fr *FileReader) Len() uint64 { return fr.count }

// MaxNode returns the largest node id the trace uses (v2; for v1 files
// it is only an upper bound until the file has been validated).
func (fr *FileReader) MaxNode() int { return fr.maxNode }

// Version returns the trace format version.
func (fr *FileReader) Version() int { return fr.version }

// rewind restarts the replay from record zero.
func (fr *FileReader) rewind() {
	fr.pos = 0
	fr.dec = decoder{version: fr.version}
	fr.bufPos, fr.bufLen = 0, 0
}

// refill slides the undecoded tail to the buffer's front and reads the
// next chunk behind it.
func (fr *FileReader) refill() {
	if fr.buf == nil {
		fr.buf = make([]byte, fileChunkBytes)
	}
	copy(fr.buf, fr.buf[fr.bufPos:fr.bufLen])
	fr.bufLen -= fr.bufPos
	fr.bufPos = 0
	fileOff := fr.pos + int64(fr.bufLen)
	want := int64(len(fr.buf) - fr.bufLen)
	if rem := fr.bodyLen - fileOff; want > rem {
		want = rem
	}
	if want <= 0 {
		return
	}
	n, err := fr.src.ReadAt(fr.buf[fr.bufLen:fr.bufLen+int(want)], fr.bodyOff+fileOff)
	if int64(n) != want {
		panic(fmt.Sprintf("trace: reading body at %d: %v", fileOff, err))
	}
	fr.bufLen += n
}

// Fill implements Stream. Without Loop it returns short counts at
// the end of the trace and 0 once exhausted; decode errors panic (run
// Validate at ingest — replay assumes a structurally sound file).
func (fr *FileReader) Fill(out []mem.Access) int {
	i := 0
	for i < len(out) {
		if fr.dec.count == fr.count {
			if !fr.Loop {
				return i
			}
			fr.rewind()
		}
		buffered := int64(fr.bufLen - fr.bufPos)
		if buffered < maxRecordBytes && buffered < fr.bodyLen-fr.pos {
			fr.refill()
			buffered = int64(fr.bufLen - fr.bufPos)
		}
		want := min(uint64(len(out)-i), fr.count-fr.dec.count)
		n, used, err := fr.dec.decode(out[i:i+int(want)], fr.buf[fr.bufPos:fr.bufLen], buffered == fr.bodyLen-fr.pos)
		if err != nil {
			panic(err.Error())
		}
		if n == 0 {
			panic(fmt.Sprintf("trace: body ends after %d of %d records", fr.dec.count, fr.count))
		}
		fr.bufPos += used
		fr.pos += int64(used)
		i += n
	}
	return i
}

// Next implements Stream, wrapping if Loop is set.
func (fr *FileReader) Next() mem.Access {
	var one [1]mem.Access
	if fr.Fill(one[:]) == 0 {
		panic("trace: replay ran past the end of the trace (set Loop to wrap)")
	}
	return one[0]
}

// Clone implements Cloner: an independent reader continuing the
// identical sequence from the current position. The clone shares the
// underlying source but owns its cursor and buffer.
func (fr *FileReader) Clone() Stream {
	cp := *fr
	cp.buf = nil
	// The clone's cursor is fr.pos with an empty buffer; its first Fill
	// re-reads from there.
	cp.bufPos, cp.bufLen = 0, 0
	return &cp
}

// ImportCSV converts a textual trace to the v2 binary format. Each line
// is "node,kind,address": node a small integer, kind one of
// i/ifetch (instruction fetch), l/load/r/read, or s/store/w/write
// (case-insensitive), and address decimal or 0x-hex. Blank lines and
// #-comments are skipped. Returns the number of records written.
func ImportCSV(r io.Reader, w io.Writer) (uint64, error) {
	fw, err := NewFileWriter(w)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return fw.n, fmt.Errorf("trace: csv line %d: want node,kind,address, got %q", lineNo, line)
		}
		node, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil || node < 0 || node >= MaxTraceNodes {
			return fw.n, fmt.Errorf("trace: csv line %d: bad node %q", lineNo, parts[0])
		}
		var kind mem.Kind
		switch strings.ToLower(strings.TrimSpace(parts[1])) {
		case "i", "ifetch", "f", "fetch":
			kind = mem.IFetch
		case "l", "load", "r", "read":
			kind = mem.Load
		case "s", "store", "w", "write":
			kind = mem.Store
		default:
			return fw.n, fmt.Errorf("trace: csv line %d: bad kind %q", lineNo, parts[1])
		}
		addr, err := strconv.ParseUint(strings.TrimSpace(parts[2]), 0, 64)
		if err != nil {
			return fw.n, fmt.Errorf("trace: csv line %d: bad address %q", lineNo, parts[2])
		}
		if err := fw.Append(mem.Access{Node: node, Kind: kind, Addr: mem.Addr(addr)}); err != nil {
			return fw.n, err
		}
	}
	if err := sc.Err(); err != nil {
		return fw.n, fmt.Errorf("trace: csv line %d: %w", lineNo, err)
	}
	if fw.n == 0 {
		return 0, fmt.Errorf("trace: empty trace")
	}
	return fw.n, fw.Close()
}
