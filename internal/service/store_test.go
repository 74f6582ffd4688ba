package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"d2m"
	"d2m/internal/service/sched"
)

// TestStoreRoundTrip appends records, closes the journal, and checks a
// reopen replays them in order.
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	recs, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh store replayed %d records", len(recs))
	}
	st, err := openResultStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := st.append(StoreRecord{
			Key: string(rune('a' + i)), Kind: "Base-2L", Benchmark: "tpc-c",
			Result: d2m.Result{Cycles: uint64(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	if err := st.append(StoreRecord{Key: "x"}); err != os.ErrClosed {
		t.Errorf("append after close = %v, want ErrClosed", err)
	}

	recs, err = ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Key != string(rune('a'+i)) || rec.Result.Cycles != uint64(i+1) {
			t.Errorf("record %d = %+v", i, rec)
		}
	}
}

// TestStoreTornTail checks a crash mid-append (a truncated final line)
// costs only that line: the replay stops at the last intact record and
// the journal stays usable.
func TestStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	intact := `{"key":"k1","kind":"Base-2L","benchmark":"tpc-c","result":{}}` + "\n" +
		`{"key":"k2","kind":"D2M-NS","benchmark":"canneal","result":{}}` + "\n"
	torn := intact + `{"key":"k3","kind":"D2M-` // crash mid-write
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != "k1" || recs[1].Key != "k2" {
		t.Fatalf("torn-tail replay = %+v, want the 2 intact records", recs)
	}
	// The journal stays usable for appends after the torn tail.
	st, err := openResultStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
}

// TestStoreAppendAfterTornTail checks a restart after a crash
// mid-append loses only the torn line: appends after reopening start
// on a fresh line, so they replay behind the intact record instead of
// being glued onto the fragment.
func TestStoreAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	torn := `{"key":"k1","kind":"Base-2L","benchmark":"tpc-c","result":{}}` + "\n" +
		`{"key":"k3","kind":"D2M-` // crash mid-write
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := openResultStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k4", "k5"} {
		if err := st.append(StoreRecord{Key: key, Kind: "D2M-NS", Benchmark: "fft"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, rec := range recs {
		keys = append(keys, rec.Key)
	}
	if len(keys) != 3 || keys[0] != "k1" || keys[1] != "k4" || keys[2] != "k5" {
		t.Fatalf("replayed keys %v, want [k1 k4 k5]", keys)
	}
}

// TestStoreKeepsUnterminatedRecord checks a crash between a whole
// record and its newline keeps the record: reopening terminates the
// line rather than truncating a record replay already accepts.
func TestStoreKeepsUnterminatedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	data := `{"key":"k1","kind":"Base-2L","benchmark":"tpc-c","result":{}}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := openResultStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.append(StoreRecord{Key: "k2"}); err != nil {
		t.Fatal(err)
	}
	st.close()
	recs, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != "k1" || recs[1].Key != "k2" {
		t.Fatalf("replay = %+v, want k1 then k2", recs)
	}
}

// TestStoreBlankAndKeylessLines checks blank lines are skipped but a
// keyless record (corruption that still parses) ends the replay.
func TestStoreBlankAndKeylessLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	data := `{"key":"k1","kind":"Base-2L","benchmark":"tpc-c","result":{}}` + "\n\n" +
		`{"key":"k2","kind":"D2M-NS","benchmark":"canneal","result":{}}` + "\n" +
		`{"kind":"no-key","benchmark":"fft","result":{}}` + "\n" +
		`{"key":"k4","kind":"D2M-FS","benchmark":"fft","result":{}}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Key != "k2" {
		t.Fatalf("replay = %+v, want k1 and k2 only", recs)
	}
}

// TestStoreBadPath checks New surfaces an unusable store path as an
// error instead of silently running without persistence.
func TestStoreBadPath(t *testing.T) {
	if _, err := New(Config{StorePath: filepath.Join(t.TempDir(), "no", "such", "dir", "s.jsonl")}); err == nil {
		t.Fatal("New accepted an unwritable store path")
	}
}

// TestRunResultsPersistAcrossRestart checks plain POST /v1/run results
// are journaled and served from the cache by a restarted server.
func TestRunResultsPersistAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	body := `{"kind":"d2m-ns-r","benchmark":"tpc-c","seed":7}`

	s1, err := New(Config{Workers: 1, StorePath: path,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			return stubResult(kind, bench, opt), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, st, _ := postRun(t, ts1, body)
	if code != http.StatusOK || st.Result == nil {
		t.Fatalf("phase 1 run: code %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	ts1.Close()

	s2, err := New(Config{Workers: 1, StorePath: path,
		Runner: func(ctx context.Context, kind d2m.Kind, bench string, opt d2m.Options) (d2m.Result, error) {
			t.Error("restarted server re-ran a persisted simulation")
			return d2m.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	})
	select {
	case <-s2.Ready(): // journal replay is asynchronous since v1.4
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	if got := s2.Metrics().StoreLoaded.Load(); got != 1 {
		t.Fatalf("store loaded = %d, want 1", got)
	}
	code, st, _ = postRun(t, ts2, body)
	if code != http.StatusOK || !st.Cached || st.Result == nil {
		t.Fatalf("phase 2 run: code %d cached %v", code, st.Cached)
	}
	if st.Result.Cycles != 1007 { // stubResult: 1000 + seed
		t.Errorf("restored result cycles = %d, want 1007", st.Result.Cycles)
	}
}

// TestStoreReplicatedRecordOrphaned: journals from before replicated
// runs became seed runs hold records under replicated keys, with a
// "replicated" field. Such a record replays without error and serves
// no request: a replicated run reads its seeds' keys, so it runs its
// seeds, whose journaled results then answer it after a restart.
func TestStoreReplicatedRecordOrphaned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	key := sched.CacheKey(d2m.D2MNS, "tpc-c", d2m.Options{Nodes: 2}, 3)
	old := fmt.Sprintf(`{"key":%q,"kind":"D2M-NS","benchmark":"tpc-c","result":{"Cycles":7},`+
		`"replicated":{"Kind":"D2M-NS","Benchmark":"tpc-c","N":3,"CyclesMean":7.5}}`+"\n", key)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	const body = `{"kind":"d2m-ns","benchmark":"tpc-c","nodes":2,"replicates":3}`
	for phase, wantCached := range []bool{false, true} {
		r := &countingRunner{}
		s, err := New(Config{Workers: 1, StorePath: path, Runner: r.run})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		<-s.Ready()
		if got, want := s.Metrics().StoreLoaded.Load(), uint64(1+3*phase); got != want {
			t.Errorf("phase %d: store loaded %d records, want %d", phase, got, want)
		}
		code, st, _ := postRun(t, ts, body)
		if code != http.StatusOK || st.Cached != wantCached || st.Replicated == nil || st.Replicated.CyclesMean != 1002 {
			t.Errorf("phase %d: code %d cached %v %+v, want the seeds' mean 1002", phase, code, st.Cached, st.Replicated)
		}
		if calls, _ := r.stats(); calls != 3*(1-phase) {
			t.Errorf("phase %d: runner invoked %d times", phase, calls)
		}
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.Shutdown(ctx)
		cancel()
	}
}
