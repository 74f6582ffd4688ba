package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchNumbers collects the jobs/sec measured by
// BenchmarkServiceThroughput; TestMain writes them to the file named
// by D2M_BENCH_OUT (the repo's BENCH_service.json) so later PRs can
// track service-throughput regressions:
//
//	D2M_BENCH_OUT=BENCH_service.json go test -run '^$' -bench BenchmarkServiceThroughput ./internal/service
var benchNumbers = struct {
	sync.Mutex
	m map[string]float64
}{m: map[string]float64{}}

func TestMain(m *testing.M) {
	code := m.Run()
	if out := os.Getenv("D2M_BENCH_OUT"); out != "" && len(benchNumbers.m) > 0 {
		payload := map[string]interface{}{
			"benchmark":    "BenchmarkServiceThroughput",
			"workload":     benchWorkload,
			"jobs_per_sec": benchNumbers.m,
		}
		data, _ := json.MarshalIndent(payload, "", "  ")
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// benchWorkload is the small simulation the throughput benchmark
// serves: real engine, real benchmark, sized so a cold job is tens of
// milliseconds.
const benchWorkload = `{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":8000}`

// BenchmarkServiceThroughput measures end-to-end jobs/sec through the
// HTTP stack on a small real simulation, cold (every job a distinct
// seed, so every job simulates) and cached (one hot request repeated).
func BenchmarkServiceThroughput(b *testing.B) {
	for _, mode := range []string{"cold", "cached"} {
		b.Run(mode, func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			}()
			post := func(i int) {
				body := benchWorkload
				if mode == "cold" {
					body = strings.TrimSuffix(body, "}") + fmt.Sprintf(`,"seed":%d}`, i+1)
				}
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("POST = %d", resp.StatusCode)
				}
			}
			post(-1) // warm the pool (and, for cached mode, the cache; seed 0)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				post(i)
			}
			elapsed := time.Since(start)
			jobsPerSec := float64(b.N) / elapsed.Seconds()
			b.ReportMetric(jobsPerSec, "jobs/s")
			benchNumbers.Lock()
			benchNumbers.m[mode] = jobsPerSec
			benchNumbers.Unlock()
		})
	}

	// cold_snapshot: every job is a cache miss (a distinct measure
	// window, therefore a distinct cache key) but shares one warm
	// identity, so after the first job the server restores the
	// post-warmup state instead of simulating the warmup-heavy prefix,
	// then walks the job's window. This is the replicate/sweep-cell
	// shape the snapshot cache exists for. A job differing only in
	// link_bandwidth would be projected from the stored window instead,
	// timing no restore at all.
	b.Run("cold_snapshot", func(b *testing.B) {
		s, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		post := func(i int) {
			body := fmt.Sprintf(snapshotBenchWorkload, 4000+i+2)
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("POST = %d", resp.StatusCode)
			}
		}
		post(-1) // deposit the warm snapshot
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			post(i)
		}
		elapsed := time.Since(start)
		jobsPerSec := float64(b.N) / elapsed.Seconds()
		b.ReportMetric(jobsPerSec, "jobs/s")
		benchNumbers.Lock()
		benchNumbers.m["cold_snapshot"] = jobsPerSec
		benchNumbers.Unlock()
	})

	// cold_nosnapshot: the cold_snapshot workload with snapshot reuse
	// disabled — the denominator of the snapshot speedup, kept in the
	// journal so the gain is readable from the numbers alone.
	b.Run("cold_nosnapshot", func(b *testing.B) {
		s, err := New(Config{SnapshotMemBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		post := func(i int) {
			body := fmt.Sprintf(snapshotBenchWorkload, 4000+i+2)
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("POST = %d", resp.StatusCode)
			}
		}
		post(-1)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			post(i)
		}
		elapsed := time.Since(start)
		jobsPerSec := float64(b.N) / elapsed.Seconds()
		b.ReportMetric(jobsPerSec, "jobs/s")
		benchNumbers.Lock()
		benchNumbers.m["cold_nosnapshot"] = jobsPerSec
		benchNumbers.Unlock()
	})

	// sweep_cold: a measure-heavy 16-cell sweep along a link-bandwidth
	// axis (one warm identity per sweep, a fresh seed per iteration so
	// nothing is cached). The vector engine coalesces the whole axis
	// into one lane group: one simulation serves all 16 cells.
	b.Run("sweep_cold", func(b *testing.B) {
		s, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		const cells = 16 // the default lane width, so one group serves the whole axis
		runSweep := func(seed int) {
			var lbs strings.Builder
			for i := 0; i < cells; i++ {
				if i > 0 {
					lbs.WriteString(",")
				}
				fmt.Fprintf(&lbs, "%.9f", 0.001+float64(i+2)*1e-9)
			}
			body := fmt.Sprintf(`{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],
					"nodes":2,"warmup":2000,"measure":16000,"seeds":[%d],
					"link_bandwidths":[%s]}`, seed, lbs.String())
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var st SweepStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				b.Fatalf("POST /v1/sweeps = %d", resp.StatusCode)
			}
			deadline := time.Now().Add(2 * time.Minute)
			for {
				resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
				if err != nil {
					b.Fatal(err)
				}
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if st.State != SweepRunning {
					break
				}
				if time.Now().After(deadline) {
					b.Fatalf("sweep %s did not finish", st.ID)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if st.State != SweepDone || st.Failed != 0 {
				b.Fatalf("sweep = %s (failed %d)", st.State, st.Failed)
			}
		}
		runSweep(1_000_000) // warm the pool outside the timed region
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			runSweep(i + 1)
		}
		elapsed := time.Since(start)
		cellsPerSec := float64(b.N*cells) / elapsed.Seconds()
		b.ReportMetric(cellsPerSec, "cells/s")
		benchNumbers.Lock()
		benchNumbers.m["sweep_cold"] = cellsPerSec
		benchNumbers.Unlock()
	})

	// batch_cached: the hot request repeated through POST /v1/batch in
	// groups of 64, against the per-request "cached" series above —
	// what batching saves in HTTP and encoding overhead per result.
	b.Run("batch_cached", func(b *testing.B) {
		s, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		// Populate the cache once.
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(benchWorkload))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		const group = 64
		var batch strings.Builder
		batch.WriteString(`{"runs":[`)
		for i := 0; i < group; i++ {
			if i > 0 {
				batch.WriteString(",")
			}
			batch.WriteString(benchWorkload)
		}
		batch.WriteString(`]}`)
		body := batch.String()
		b.ResetTimer()
		start := time.Now()
		for done := 0; done < b.N; done += group {
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("POST /v1/batch = %d", resp.StatusCode)
			}
		}
		elapsed := time.Since(start)
		runs := ((b.N + group - 1) / group) * group
		runsPerSec := float64(runs) / elapsed.Seconds()
		b.ReportMetric(runsPerSec, "runs/s")
		benchNumbers.Lock()
		benchNumbers.m["batch_cached"] = runsPerSec
		benchNumbers.Unlock()
	})
}

// snapshotBenchWorkload is the warmup-heavy simulation behind the
// cold_snapshot series: the warmup dominates the measurement window,
// and the varying measure (a measurement-side parameter outside the
// warm identity) makes every job a distinct cache entry and a distinct
// window, so each one restores and walks.
const snapshotBenchWorkload = `{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":20000,"measure":%d,"link_bandwidth":0.001}`
