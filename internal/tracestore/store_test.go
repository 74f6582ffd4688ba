package tracestore

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// encodeV2 returns a small v2 trace as bytes.
func encodeV2(t *testing.T, accs []mem.Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := trace.NewFileWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		if err := fw.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sampleAccesses(n int) []mem.Access {
	out := make([]mem.Access, n)
	for i := range out {
		out[i] = mem.Access{Node: i % 4, Kind: mem.Kind(i % 3), Addr: mem.Addr(0x1000 + i*64)}
	}
	return out
}

func TestPutGetListOpenReader(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleAccesses(500)
	enc := encodeV2(t, want)

	info, err := s.Put(bytes.NewReader(enc), "toy")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.ID) != IDLen {
		t.Errorf("id %q, want %d hex chars", info.ID, IDLen)
	}
	if info.Accesses != 500 || info.Nodes != 4 || info.Version != 2 || info.Name != "toy" {
		t.Errorf("Info = %+v", info)
	}

	// Idempotent re-ingest: same bytes, same id, no new entry; the
	// original name sticks.
	again, err := s.Put(bytes.NewReader(enc), "other-name")
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != info.ID || again.Name != "toy" {
		t.Errorf("re-ingest Info = %+v, want original %+v", again, info)
	}
	if got := s.List(); len(got) != 1 || got[0].ID != info.ID {
		t.Errorf("List = %+v", got)
	}

	if got, ok := s.Get(info.ID); !ok || got != info {
		t.Errorf("Get = %+v, %v", got, ok)
	}
	if _, ok := s.Get("ffffffffffffffff"); ok {
		t.Error("Get of unknown id succeeded")
	}
	if p, ok := s.Path(info.ID); !ok || filepath.Ext(p) != ".trc" {
		t.Errorf("Path = %q, %v", p, ok)
	}

	fr, frInfo, err := s.OpenReader(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if frInfo != info {
		t.Errorf("OpenReader Info = %+v", frInfo)
	}
	for i, a := range want {
		if got := fr.Next(); got != a {
			t.Fatalf("record %d: got %v, want %v", i, got, a)
		}
	}
	if _, _, err := s.OpenReader("ffffffffffffffff"); err == nil {
		t.Error("OpenReader of unknown id succeeded")
	}
}

func TestPutRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeV2(t, sampleAccesses(100))

	// Torn (footer gone) and corrupt (CRC mismatch) uploads never become
	// visible — and leave no stray files behind.
	if _, err := s.Put(bytes.NewReader(enc[:len(enc)-10]), ""); err == nil {
		t.Error("torn upload accepted")
	}
	bad := append([]byte{}, enc...)
	bad[12] ^= 1
	if _, err := s.Put(bytes.NewReader(bad), ""); err == nil {
		t.Error("corrupt upload accepted")
	}
	if _, err := s.Put(strings.NewReader("not a trace"), ""); err == nil {
		t.Error("garbage upload accepted")
	}
	if got := s.List(); len(got) != 0 {
		t.Errorf("rejected uploads visible: %+v", got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Errorf("rejected uploads left %d files in the store dir", len(ents))
	}
}

func TestPutCSVSharesID(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	csv := "0,load,0x40\n1,store,0x80\n0,i,0xc0\n"
	csvInfo, err := s.PutCSV(strings.NewReader(csv), "from-csv")
	if err != nil {
		t.Fatal(err)
	}
	// The id is the hash of the CONVERTED bytes: converting the same CSV
	// ourselves and Put-ing the binary must land on the same id.
	var bin bytes.Buffer
	if _, err := trace.ImportCSV(strings.NewReader(csv), &bin); err != nil {
		t.Fatal(err)
	}
	binInfo, err := s.Put(&bin, "from-binary")
	if err != nil {
		t.Fatal(err)
	}
	if binInfo.ID != csvInfo.ID {
		t.Errorf("csv id %s != binary id %s", csvInfo.ID, binInfo.ID)
	}
	if csvInfo.Accesses != 3 || csvInfo.Version != 2 {
		t.Errorf("csv Info = %+v", csvInfo)
	}
}

func TestOpenReloadsSidecars(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleAccesses(50)
	info, err := s.Put(bytes.NewReader(encodeV2(t, want)), "persisted")
	if err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory sees the trace and replays it.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(info.ID)
	if !ok || got != info {
		t.Fatalf("reloaded Info = %+v, %v", got, ok)
	}
	fr, _, err := s2.OpenReader(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range want {
		if g := fr.Next(); g != a {
			t.Fatalf("record %d: got %v, want %v", i, g, a)
		}
	}

	// An orphaned sidecar (trace file deleted) is skipped on load.
	os.Remove(filepath.Join(dir, info.ID+".trc"))
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get(info.ID); ok {
		t.Error("orphaned sidecar loaded")
	}
}

// fullDisk accepts limit bytes, then fails every write with ENOSPC.
type fullDisk struct {
	w     io.Writer
	limit int
}

func (d *fullDisk) Write(p []byte) (int, error) {
	if len(p) <= d.limit {
		d.limit -= len(p)
		return d.w.Write(p)
	}
	n, _ := d.w.Write(p[:d.limit])
	d.limit = 0
	return n, syscall.ENOSPC
}

// TestPutDiskFull injects ENOSPC into the spool copy and into the
// sidecar write. Each failed Put must return the error, leave no spool
// file and no trace file, change neither List nor Get, keep earlier
// traces replayable, and let the next Put succeed.
func TestPutDiskFull(t *testing.T) {
	for _, point := range []string{"spool", "sidecar"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			earlierAccs := sampleAccesses(300)
			earlier, err := s.Put(bytes.NewReader(encodeV2(t, earlierAccs)), "earlier")
			if err != nil {
				t.Fatal(err)
			}
			list := s.List()

			switch point {
			case "spool":
				s.spool = func(f *os.File) io.Writer { return &fullDisk{w: f, limit: 100} }
			case "sidecar":
				s.writeFile = func(name string, data []byte, perm os.FileMode) error {
					f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
					if err != nil {
						return err
					}
					defer f.Close()
					_, err = (&fullDisk{w: f, limit: len(data) / 2}).Write(data)
					return err
				}
			}
			enc := encodeV2(t, sampleAccesses(2000))
			if _, err := s.Put(bytes.NewReader(enc), "new"); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("Put on a full disk = %v, want ENOSPC", err)
			}

			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if name := e.Name(); name != earlier.ID+".trc" && name != earlier.ID+".json" {
					t.Errorf("failed Put left %s behind", name)
				}
			}
			if got := s.List(); !reflect.DeepEqual(got, list) {
				t.Errorf("List after failed Put = %+v, want %+v", got, list)
			}
			if got, ok := s.Get(earlier.ID); !ok || got != earlier {
				t.Errorf("Get(%s) = %+v, %v", earlier.ID, got, ok)
			}
			fr, _, err := s.OpenReader(earlier.ID)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]mem.Access, len(earlierAccs)+1)
			if n := fr.Fill(got); n != len(earlierAccs) || !reflect.DeepEqual(got[:n], earlierAccs) {
				t.Errorf("earlier trace replayed %d records, not the %d stored", n, len(earlierAccs))
			}

			// Space is back: the same upload now succeeds and survives a
			// reopen.
			s.spool = func(f *os.File) io.Writer { return f }
			s.writeFile = os.WriteFile
			info, err := s.Put(bytes.NewReader(enc), "new")
			if err != nil {
				t.Fatalf("Put after the disk recovered: %v", err)
			}
			if info.Accesses != 2000 || len(s.List()) != 2 {
				t.Errorf("Put after recovery = %+v, List has %d", info, len(s.List()))
			}
			reopened, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := reopened.List(); len(got) != 2 {
				t.Errorf("reopened store lists %d traces, want 2", len(got))
			}
		})
	}
}
