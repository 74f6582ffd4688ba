package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// phase is what one timed phase of a workload measured.
type phase struct {
	Elapsed   time.Duration
	Attempted int
	Results   int   // simulation results delivered
	Accesses  int64 // simulated accesses (warmup + measure) of those results
	Runs      latencies
	RunClass  [3]latencies // Runs split into cold, repeat and warm
	Batches   latencies
	Sweeps    latencies
	PeakRSS   float64 // MiB, the highest RSS sampled during the phase
	CPU       float64 // seconds of process CPU time (user + system)
	Steal     float64 // share of the host's CPU time stolen by its hypervisor
	Windows   []window
}

// window is one slice of a timed phase: an engine-cold pass over the
// grid, or one second of a service mix.
type window struct {
	Dur      time.Duration
	Results  int
	Accesses int64
}

// rates returns the phase's throughputs as the median over its
// windows, so a burst of host contention in a minority of windows does
// not move them; a phase without windows uses its whole length.
func (ph *phase) rates() (accPerS, jobsPerS float64) {
	if len(ph.Windows) == 0 {
		el := ph.Elapsed.Seconds()
		return float64(ph.Accesses) / el, float64(ph.Results) / el
	}
	acc := make([]float64, len(ph.Windows))
	jobs := make([]float64, len(ph.Windows))
	for i, w := range ph.Windows {
		acc[i] = float64(w.Accesses) / w.Dur.Seconds()
		jobs[i] = float64(w.Results) / w.Dur.Seconds()
	}
	return median(acc), median(jobs)
}

// fingerprint identifies the host and code a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func hostFingerprint(seed uint64) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commitOf("."),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitOf names the code under test: the git HEAD commit when root is
// a git checkout, otherwise "tree:" and a digest of every Go source and
// go.mod file under root (a checkout without .git still gets an
// identity that changes with the code).
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if c, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				return strings.TrimSpace(string(c))
			}
			return ref
		}
		return ref
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f)
		return nil
	})
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// currentRSSMiB reads the resident set from /proc/self/statm.
func currentRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// processCPU is the process's user + system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuJiffies reads the aggregate cpu line of /proc/stat: stolen and
// total jiffies.
func cpuJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// monitor watches the process during a timed phase: the highest RSS
// sampled (so two phases in one process can be compared; the rusage
// peak never goes down), the CPU time used, and how much of the host's
// CPU time its hypervisor stole, which explains outlying runs.
type monitor struct {
	stopCh         chan struct{}
	done           chan struct{}
	peak           float64
	cpu0           float64
	steal0, total0 float64
}

func startMonitor() *monitor {
	m := &monitor{stopCh: make(chan struct{}), done: make(chan struct{}), peak: currentRSSMiB(), cpu0: processCPU()}
	m.steal0, m.total0 = cpuJiffies()
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stopCh:
				return
			case <-t.C:
				m.peak = max(m.peak, currentRSSMiB())
			}
		}
	}()
	return m
}

// stop ends the watch and fills the phase's RSS, CPU and steal fields.
func (m *monitor) stop(ph *phase) {
	close(m.stopCh)
	<-m.done
	ph.PeakRSS = max(m.peak, currentRSSMiB())
	ph.CPU = processCPU() - m.cpu0
	steal, total := cpuJiffies()
	if total > m.total0 {
		ph.Steal = (steal - m.steal0) / (total - m.total0)
	}
}

// parallelFor calls fn(0..n-1) on at most workers goroutines and
// returns when every call has.
func parallelFor(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
