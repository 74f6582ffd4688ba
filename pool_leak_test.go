package d2m

// Pooled-object release on error and cancellation paths: a run that
// exits early (pre-cancelled context, mid-run deadline) must still
// return every pooled table and array it acquired, or the service
// would leak a hierarchy's worth of memory per killed job. The pools
// count Gets minus Puts; after any number of cancelled runs that
// balance must sit exactly where it started.

import (
	"context"
	"testing"
	"time"

	"d2m/internal/baseline"
	"d2m/internal/cache"
	"d2m/internal/core"
)

func poolBalances() [3]int64 {
	return [3]int64{cache.TableBalance(), core.PoolBalance(), baseline.PoolBalance()}
}

func TestCancelledRunsReleasePools(t *testing.T) {
	opt := Options{Nodes: 2, Warmup: 200_000, Measure: 400_000}

	// Settle: one completed run per machine family so construction
	// pools are populated before the baseline is taken.
	small := Options{Nodes: 2, Warmup: 500, Measure: 500}
	for _, kind := range []Kind{D2MNSR, Base2L} {
		if _, err := runSim(kind, "tpc-c", small); err != nil {
			t.Fatal(err)
		}
	}
	base := poolBalances()

	// Pre-cancelled contexts: the run dies at the first warmup
	// checkpoint, exercising the earliest exit path.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 4; i++ {
		for _, kind := range []Kind{D2MNSR, Base2L} {
			if _, err := runOne(cancelled, kind, "tpc-c", opt); err == nil {
				t.Fatalf("%v: pre-cancelled run reported success", kind)
			}
		}
	}

	// Mid-run deadlines: the run is killed partway through warmup (a
	// full run takes tens of milliseconds at this size).
	for i := 0; i < 4; i++ {
		for _, kind := range []Kind{D2MNSR, Base2L} {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
			_, err := runOne(ctx, kind, "tpc-c", opt)
			cancel()
			if err == nil {
				t.Fatalf("%v: deadline run reported success", kind)
			}
		}
	}

	// Cancellation through the warm-snapshot path must release too —
	// both on the populating (miss) run and on the restored (hit) run.
	wc := newMapWarmCache()
	warmOpt := Options{Nodes: 2, Warmup: 2000, Measure: 400_000}
	if _, err := runOneWarm(context.Background(), D2MNSR, "tpc-c", warmOpt, wc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := runOneWarm(cancelled, D2MNSR, "tpc-c", warmOpt, wc); err == nil {
			t.Fatal("cancelled warm run reported success")
		}
	}

	if got := poolBalances(); got != base {
		t.Errorf("pool balances after cancelled runs = %v, want %v (tables, core arrays, baseline arrays)", got, base)
	}
}

// TestCancelledWarmRunsReleasePools covers the warm-snapshot path for
// both machine families: for both baselines and a D2M kind, a capturing run
// killed mid-warmup, a completed capture, runs killed before a
// projection, and restored runs killed while walking a window the
// capture did not measure must all return every pooled table and
// array, leaving the balances where they started.
func TestCancelledWarmRunsReleasePools(t *testing.T) {
	kinds := []Kind{Base2L, Base3L, D2MNSR}
	small := Options{Nodes: 2, Warmup: 500, Measure: 500}
	for _, kind := range kinds {
		if _, err := runSim(kind, "tpc-c", small); err != nil {
			t.Fatal(err)
		}
	}
	base := poolBalances()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range kinds {
		wc := newMapWarmCache()
		long := Options{Nodes: 2, Warmup: 400_000, Measure: 400_000}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
		_, err := runOneWarm(ctx, kind, "tpc-c", long, wc)
		cancel()
		if err == nil {
			t.Fatalf("%v: capturing run cancelled mid-warmup reported success", kind)
		}

		warmOpt := Options{Nodes: 2, Warmup: 2000, Measure: 400_000}
		if _, err := runOneWarm(context.Background(), kind, "tpc-c", warmOpt, wc); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := runOneWarm(cancelled, kind, "tpc-c", warmOpt, wc); err == nil {
				t.Fatalf("%v: pre-cancelled warm run reported success", kind)
			}
		}
		hits := wc.hits
		// A window the capture did not measure, so the run restores and
		// walks rather than projecting the stored outcome.
		walkOpt := warmOpt
		walkOpt.Measure++
		for i := 0; i < 2; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
			_, err := runOneWarm(ctx, kind, "tpc-c", walkOpt, wc)
			cancel()
			if err == nil {
				t.Fatalf("%v: restored run cancelled mid-measure reported success", kind)
			}
		}
		if wc.hits == hits {
			t.Fatalf("%v: the cancelled runs never restored a snapshot", kind)
		}
	}

	if got := poolBalances(); got != base {
		t.Errorf("pool balances after cancelled warm runs = %v, want %v (tables, core arrays, baseline arrays)", got, base)
	}
}
