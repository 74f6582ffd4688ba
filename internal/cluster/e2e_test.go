package cluster_test

// Multi-process end-to-end test: real d2mserver binaries — two
// scheduler shards and a gateway — wired over loopback TCP, driven
// with mixed run/batch/sweep traffic, compared byte-for-byte against
// a single-process server, and drained mid-sweep. This is the one
// test that exercises the actual process boundary (flag parsing,
// JSON logging, journal files on disk, OS sockets) rather than
// in-process handlers.

import (
	"bufio"
	"bytes"
	"context"
	"d2m/internal/api"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"d2m/internal/service"
)

// buildServer compiles cmd/d2mserver once per test binary.
var buildServer = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "d2mserver-e2e")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "d2mserver")
	out, err := exec.Command("go", "build", "-o", bin, "d2m/cmd/d2mserver").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build d2mserver: %v\n%s", err, out)
	}
	return bin, nil
})

// startServer spawns one d2mserver process on a kernel-assigned port
// and scrapes its bound address from the JSON startup log.
func startServer(t *testing.T, bin string, args ...string) (url string) {
	t.Helper()
	args = append([]string{"-addr", "127.0.0.1:0", "-log-format", "json"}, args...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			var line struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "listening" {
				select {
				case addrCh <- line.Addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr
	case <-time.After(15 * time.Second):
		t.Fatalf("d2mserver %v never logged its address", args)
		return ""
	}
}

func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became ready", url)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// resultBytes strips the envelope down to the simulation result for
// byte-identity comparison (job ids and timings legitimately differ
// across topologies).
func resultBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	var st api.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	if st.State != api.JobDone || st.Result == nil {
		t.Fatalf("job not done: %s", raw)
	}
	return payload(st)
}

// payload is a settled job's result and, for a replicated run, its
// aggregate.
func payload(st api.JobStatus) []byte {
	out, _ := json.Marshal([]interface{}{st.Result, st.Replicated})
	return out
}

// TestClusterE2EProcesses drives a real 2-shard fleet: mixed
// run/batch/sweep traffic, a replicated run among it, byte-identical to
// a single-process server, then a mid-sweep drain of one shard that the
// sweep must survive.
func TestClusterE2EProcesses(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX process management")
	}
	bin, err := buildServer()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	shardA := startServer(t, bin, "-shard", "a", "-store", filepath.Join(dir, "a.jsonl"), "-workers", "1")
	shardB := startServer(t, bin, "-shard", "b", "-store", filepath.Join(dir, "b.jsonl"), "-workers", "1")
	single := startServer(t, bin, "-shard", "single", "-workers", "1")
	waitReady(t, shardA)
	waitReady(t, shardB)
	waitReady(t, single)

	gateway := startServer(t, bin, "-gateway",
		"-peers", fmt.Sprintf("a=%s,b=%s", shardA, shardB),
		"-merge-stores", filepath.Join(dir, "a.jsonl")+","+filepath.Join(dir, "b.jsonl"),
		"-probe-interval", "100ms")
	waitReady(t, gateway)

	// --- Mixed traffic, byte-identical to the single process. ---

	runs := []string{
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":8000,"seed":7}`,
		`{"kind":"base-2l","benchmark":"canneal","nodes":2,"warmup":2000,"measure":6000,"seed":3}`,
		`{"kind":"d2m-fs","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":6000,"seed":5}`,
		`{"kind":"d2m-ns-r","benchmark":"canneal","nodes":2,"warmup":2000,"measure":4000,"seed":9,"replicates":3}`,
	}
	for i, body := range runs {
		codeG, rawG := post(t, gateway+"/v1/run", body)
		codeS, rawS := post(t, single+"/v1/run", body)
		if codeG != http.StatusOK || codeS != http.StatusOK {
			t.Fatalf("run %d: gateway=%d single=%d (%s)", i, codeG, codeS, rawG)
		}
		if g, s := resultBytes(t, rawG), resultBytes(t, rawS); !bytes.Equal(g, s) {
			t.Errorf("run %d result differs:\n gateway %s\n single  %s", i, g, s)
		}
	}

	batch := `{"runs":[` + strings.Join(runs, ",") + `]}`
	codeG, rawG := post(t, gateway+"/v1/batch", batch)
	codeS, rawS := post(t, single+"/v1/batch", batch)
	if codeG != http.StatusOK || codeS != http.StatusOK {
		t.Fatalf("batch: gateway=%d single=%d", codeG, codeS)
	}
	var bg, bs struct {
		Results []api.JobStatus `json:"results"`
	}
	json.Unmarshal(rawG, &bg)
	json.Unmarshal(rawS, &bs)
	if len(bg.Results) != len(runs) || len(bs.Results) != len(runs) {
		t.Fatalf("batch lengths: gateway=%d single=%d", len(bg.Results), len(bs.Results))
	}
	for i := range bg.Results {
		g, s := payload(bg.Results[i]), payload(bs.Results[i])
		if !bytes.Equal(g, s) {
			t.Errorf("batch slot %d differs:\n gateway %s\n single  %s", i, g, s)
		}
	}

	sweepBody := `{"kinds":["base-2l","d2m-ns-r"],"benchmarks":["tpc-c","canneal"],"nodes":2,"warmup":2000,"measure":4000}`
	sumG := runSweepTo(t, gateway, sweepBody, "")
	sumS := runSweepTo(t, single, sweepBody, "")
	if !bytes.Equal(sumG, sumS) {
		t.Errorf("sweep summary differs:\n gateway %s\n single  %s", sumG, sumS)
	}

	// --- Drain shard A mid-sweep; the sweep must still complete. ---

	drainSweep := `{"kinds":["base-2l","d2m-ns-r"],"benchmarks":["tpc-c","canneal","streamcluster"],"seeds":[11,12],"nodes":2,"warmup":4000,"measure":4000}`
	sum := runSweepTo(t, gateway, drainSweep, shardA)
	if sum == nil {
		t.Fatal("drained sweep returned no summary")
	}

	// The drained shard reports draining on /readyz but stays alive on
	// /healthz.
	code, _ := get(t, shardA+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("drained shard /readyz = %d, want 503", code)
	}
	code, _ = get(t, shardA+"/healthz")
	if code != http.StatusOK {
		t.Errorf("drained shard /healthz = %d, want 200", code)
	}
}

// runSweepTo posts a sweep and polls it to completion, optionally
// draining drainURL once the sweep is in flight. Returns the summary
// JSON.
func runSweepTo(t *testing.T, base, body, drainURL string) []byte {
	t.Helper()
	code, raw := post(t, base+"/v1/sweeps", body)
	if code != http.StatusAccepted {
		t.Fatalf("sweep POST = %d (%s)", code, raw)
	}
	var st service.SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if drainURL != "" {
		time.Sleep(100 * time.Millisecond)
		if code, raw := post(t, drainURL+"/admin/drain", ""); code != http.StatusOK {
			t.Fatalf("drain POST = %d (%s)", code, raw)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for {
		code, raw = get(t, base+"/v1/sweeps/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("sweep GET = %d (%s)", code, raw)
		}
		var cur service.SweepStatus
		if err := json.Unmarshal(raw, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.State == service.SweepDone {
			if cur.Done != cur.Total || cur.Failed != 0 || cur.Canceled != 0 {
				t.Fatalf("sweep finished ragged: %s", raw)
			}
			out, _ := json.Marshal(cur.Summary)
			return out
		}
		if cur.State == service.SweepCanceled {
			t.Fatalf("sweep canceled: %s", raw)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("sweep never settled: %s", raw)
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// TestClusterThroughputScaling measures cold-job throughput through
// the gateway with one shard vs two. Needs real parallel hardware:
// on fewer than 4 CPUs the two single-worker shards would just share
// a core and show nothing.
func TestClusterThroughputScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement; skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful scaling ratio, have %d", runtime.NumCPU())
	}
	bin, err := buildServer()
	if err != nil {
		t.Fatal(err)
	}

	shardA := startServer(t, bin, "-shard", "a", "-workers", "1")
	shardB := startServer(t, bin, "-shard", "b", "-workers", "1")
	waitReady(t, shardA)
	waitReady(t, shardB)
	gw1 := startServer(t, bin, "-gateway", "-peers", "a="+shardA)
	gw2 := startServer(t, bin, "-gateway", "-peers", fmt.Sprintf("a=%s,b=%s", shardA, shardB))
	waitReady(t, gw1)
	waitReady(t, gw2)

	const jobs = 24
	measure := func(base string, seedBase int) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		errs := make(chan error, jobs)
		for i := 0; i < jobs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body := fmt.Sprintf(
					`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":8000,"seed":%d}`,
					seedBase+i)
				resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("POST = %d", resp.StatusCode)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		return float64(jobs) / time.Since(start).Seconds()
	}

	one := measure(gw1, 1000)
	two := measure(gw2, 2000)
	ratio := two / one
	t.Logf("cold throughput: 1 shard %.1f jobs/s, 2 shards %.1f jobs/s (%.2fx)", one, two, ratio)
	if ratio < 1.7 {
		t.Errorf("2-shard scaling = %.2fx, want >= 1.7x", ratio)
	}
}
