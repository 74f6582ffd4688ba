package d2m

// Machine lifecycle cost. Every run builds the full default hierarchy
// (an 8 MB LLC of 131,072 line slots plus a 16k-region MD3) but a short
// run writes a few thousand of those slots, so construction, release,
// snapshot capture and restore are paid per slot written (the tables'
// write logs and sparse snapshots), not per slot owned.
// TestWarmSnapshotSize guards the snapshot half against dense copies
// creeping back; BenchmarkMachineLifecycle reports both halves:
//
//	go test -run '^$' -bench BenchmarkMachineLifecycle -benchtime 200x .

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"d2m/internal/sim"
	"d2m/internal/trace"
)

// warmSnapshotLimit bounds a 2-node tpc-c snapshot after a 2k warmup.
// Sparse snapshots of that shape are 35–68 KiB; a dense copy of the
// hierarchy is 1.8–5.6 MiB.
const warmSnapshotLimit = 256 << 10

func TestWarmSnapshotSize(t *testing.T) {
	opt := Options{Nodes: 2, Warmup: 2000, Measure: 1000}
	for _, kind := range allKinds() {
		wc := newMapWarmCache()
		if _, err := runOneWarm(context.Background(), kind, "tpc-c", opt, wc); err != nil {
			t.Fatal(err)
		}
		ws := wc.m[SweepCell{Kind: kind, Benchmark: "tpc-c", Options: opt}.Key().String()]
		if ws == nil {
			t.Fatalf("%v: the run deposited no snapshot", kind)
		}
		if got := ws.SizeBytes(); got > warmSnapshotLimit {
			t.Errorf("%v: 2-node snapshot after a 2k warmup is %d bytes, limit %d", kind, got, warmSnapshotLimit)
		}
	}
}

// TestConcurrentRunsSharePools runs cold, capturing and restored runs
// of a baseline and a D2M kind on several goroutines at once, all
// drawing on the process-wide construction pools and one warm cache,
// and requires each result to equal its serial reference. Under the
// race detector this pins the release ordering: a payload cleared
// through its table's write log after PutTable would race with another
// worker's GetTable resetting that table.
func TestConcurrentRunsSharePools(t *testing.T) {
	ctx := context.Background()
	kinds := []Kind{Base3L, D2MNSR}
	opts := []Options{
		{Nodes: 2, Warmup: 2000, Measure: 3000},
		{Nodes: 2, Warmup: 2000, Measure: 5000},
		{Nodes: 4, Warmup: 1000, Measure: 3000},
	}
	want := map[string]string{}
	for _, kind := range kinds {
		for _, opt := range opts {
			r, err := runOne(ctx, kind, "tpc-c", opt)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(kind, opt)] = resultJSON(t, r)
		}
	}
	wc := newMapWarmCache()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				kind, opt := kinds[(w+i)%len(kinds)], opts[(w+i)%len(opts)]
				var warm WarmCache
				if (w+i)%3 != 0 {
					warm = wc
				}
				r, err := runOneWarm(ctx, kind, "tpc-c", opt, warm)
				if err != nil {
					t.Error(err)
					return
				}
				if got := resultJSON(t, r); got != want[fmt.Sprint(kind, opt)] {
					t.Errorf("%v %+v: concurrent run differs from its serial reference", kind, opt)
				}
			}
		}(w)
	}
	wg.Wait()
	if wc.hits == 0 {
		t.Error("no concurrent run restored a snapshot")
	}
}

func resultJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// BenchmarkMachineLifecycle reports, per kind at 2 and 8 nodes, New
// plus Release of an untouched machine, and Snapshot plus Restore into
// a freshly built machine after a 2k tpc-c warmup, with the snapshot's
// size. The second case's ns/op also covers the destination's New and
// Release; its capture-restore-ns metric times Snapshot and Restore
// alone.
func BenchmarkMachineLifecycle(b *testing.B) {
	ctx := context.Background()
	for _, kind := range AllKinds() {
		mech, err := mechFor(kind)
		if err != nil {
			b.Fatal(err)
		}
		for _, nodes := range []int{2, 8} {
			opt := Options{Nodes: nodes, Warmup: 2000, Measure: 1}.withDefaults()
			mo := mechOptions(opt)
			b.Run(fmt.Sprintf("%v/n%d/new-release", kind, nodes), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mech.New(mo).Release()
				}
			})
			b.Run(fmt.Sprintf("%v/n%d/snapshot-restore", kind, nodes), func(b *testing.B) {
				src, err := resolve(RunSpec{Kind: kind, Benchmark: "tpc-c", Options: opt}, opt)
				if err != nil {
					b.Fatal(err)
				}
				inst := mech.New(mo)
				defer inst.Release()
				if err := sim.NewEngine(inst, nodes).Warmup(ctx, trace.NewInterleaver(src.streams(opt)), opt.Warmup); err != nil {
					b.Fatal(err)
				}
				var bytes int64
				var inner time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst := mech.New(mo)
					start := time.Now()
					snap := inst.Snapshot()
					dst.Restore(snap)
					inner += time.Since(start)
					bytes = snap.SizeBytes()
					dst.Release()
				}
				b.ReportMetric(float64(inner.Nanoseconds())/float64(b.N), "capture-restore-ns")
				b.ReportMetric(float64(bytes), "snap-B")
			})
		}
	}
}
