package d2m

// Generated stream digests: every simulated number starts from a
// workload stream, so the streams themselves are pinned. Each catalog,
// Vector and kernel source at 2 and 8 nodes, under the default seed and
// one run seed, is merged by the interleaver and its first
// streamDigestLen accesses are hashed. The stream is read four ways —
// interleaver blocks of 1024, blocks of 37 (a block end can fall
// between a node's fetch and its data access), Next alone, and a clone
// taken mid-block and read to the end in blocks alternating with the
// original's — and all must match. A deliberate change to the
// generators regenerates the file with
//
//	go test -run TestStreamDigests -update .

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"d2m/internal/kernels"
	"d2m/internal/mem"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

const (
	streamDigestPath = "testdata/stream_digests.json"
	streamDigestLen  = 200_000
)

// streamDigestSources lists every generated source by benchmark name.
func streamDigestSources() []string {
	names := append(workloads.Names(), workloads.VectorNames()...)
	for _, k := range kernels.Names() {
		names = append(names, KernelPrefix+k)
	}
	return names
}

// newSourceInterleaver merges a source's streams the way a run does,
// the run seed included.
func newSourceInterleaver(t *testing.T, bench string, opt Options) *trace.Interleaver {
	t.Helper()
	src, err := benchStream(bench, opt)
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewInterleaver(src.streams(opt))
}

// fillBlocks reads buf from iv by Fill calls of at most block
// accesses. The interleaver fills whole rounds, so a call can return
// less than it was asked for.
func fillBlocks(iv *trace.Interleaver, buf []mem.Access, block int) {
	for i := 0; i < len(buf); {
		got := iv.Fill(buf[i:min(i+block, len(buf))])
		if got == 0 {
			panic("stream ended early")
		}
		i += got
	}
}

func accessDigest(buf []mem.Access) string {
	h := sha256.New()
	var rec [10]byte
	for _, a := range buf {
		rec[0], rec[1] = byte(a.Node), byte(a.Kind)
		binary.LittleEndian.PutUint64(rec[2:], uint64(a.Addr))
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestStreamDigests(t *testing.T) {
	got := map[string]string{}
	ref := make([]mem.Access, streamDigestLen)
	buf := make([]mem.Access, streamDigestLen)
	alt := make([]mem.Access, streamDigestLen)
	for _, bench := range streamDigestSources() {
		for _, nodes := range []int{2, 8} {
			for _, seed := range []uint64{0, 7} {
				name := bench + "/n" + strconv.Itoa(nodes) + "/s" + strconv.FormatUint(seed, 10)
				opt := Options{Nodes: nodes, Seed: seed}
				fillBlocks(newSourceInterleaver(t, bench, opt), ref, 1024)
				got[name] = accessDigest(ref)

				check := func(way string, read []mem.Access) {
					for i := range ref {
						if read[i] != ref[i] {
							t.Errorf("%s: %s access %d = %v, blocks of 1024 gave %v", name, way, i, read[i], ref[i])
							return
						}
					}
				}
				fillBlocks(newSourceInterleaver(t, bench, opt), buf, 37)
				check("blocks of 37", buf)

				iv := newSourceInterleaver(t, bench, opt)
				for i := range buf {
					buf[i] = iv.Next()
				}
				check("Next", buf)

				// Clone mid-block: a partial round and, at this odd
				// count, pending data accesses on some nodes. The
				// original and the clone then read alternating blocks,
				// so state they share advances twice and shows.
				const cut = 3*1024 + 517
				iv = newSourceInterleaver(t, bench, opt)
				fillBlocks(iv, alt[:cut], 1024)
				copy(buf, alt[:cut])
				cp, ok := iv.Clone()
				if !ok {
					t.Errorf("%s: not cloneable", name)
					continue
				}
				for i := cut; i < len(buf); i += 1024 {
					end := min(i+1024, len(buf))
					fillBlocks(iv, alt[i:end], 1024)
					fillBlocks(cp, buf[i:end], 1024)
				}
				check("original after the clone", alt)
				check("clone", buf)
			}
		}
	}
	if t.Failed() {
		return
	}

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.WriteFile(streamDigestPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(streamDigestPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var wantMap map[string]string
	if err := json.Unmarshal(want, &wantMap); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if w, ok := wantMap[name]; !ok {
			t.Errorf("%s: no committed digest", name)
		} else if w != d {
			t.Errorf("%s: digest %s, committed %s", name, d, w)
		}
	}
	for name := range wantMap {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: committed digest has no source", name)
		}
	}
	if !bytes.Equal(data, want) && !t.Failed() {
		t.Error("digest file is not in canonical form; regenerate it with -update")
	}
}
