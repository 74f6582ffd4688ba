package main

import (
	"math/rand/v2"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/service"
)

// opClass is one request class of the service mix.
type opClass int

const (
	opCold   opClass = iota // /v1/run with a never-seen seed
	opRepeat                // /v1/run of an earlier spec: a result-cache hit
	opWarm                  // /v1/run of an earlier warm identity with a new link_bandwidth
	opBatch                 // /v1/batch of batchRuns runs sharing a fresh warm identity
	opSweep                 // /v1/sweeps of 2 kinds x sweepBandwidths link bandwidths
	numClasses
)

var classNames = [numClasses]string{"cold", "repeat", "warm", "batch", "sweep"}

func (c opClass) String() string { return classNames[c] }

// mixCycle fixes the shares exactly: every 20 consecutive operations of
// a client hold 11 cold runs (55%), 3 cache repeats (15%), 3 warm
// restores (15%), 2 batches (10%) and 1 sweep (5%), in seeded order.
var mixCycle = func() []opClass {
	var c []opClass
	for class, n := range [numClasses]int{11, 3, 3, 2, 1} {
		for i := 0; i < n; i++ {
			c = append(c, opClass(class))
		}
	}
	return c
}()

// The spec shape of every simulated run in the mix.
const (
	mixNodes        = 2
	mixWarmup       = 2000
	mixMeasure      = 8000
	batchRuns       = 8
	sweepBandwidths = 8
	// warmPool is how many of a client's first cold identities its warm
	// requests revisit. The second miss on an identity captures a
	// snapshot; later ones restore it, so with a small pool almost every
	// warm request is a restore.
	warmPool = 4
	// repeatWindow bounds how far back a repeat reaches, well inside
	// the service's 1024-entry result cache.
	repeatWindow = 64
)

// op is one generated request.
type op struct {
	Class opClass
	Runs  []api.RunRequest // run classes: one request; batch: batchRuns
	Sweep *service.SweepRequest
}

// results is how many simulation results the operation delivers.
func (o op) results() int {
	if o.Sweep != nil {
		return 2 * sweepBandwidths
	}
	return len(o.Runs)
}

// mixGen generates one client's request sequence. It is deterministic
// in (seed, client): the program only ever sees the generated requests.
type mixGen struct {
	rng    *rand.Rand
	kinds  []string
	cycle  []opClass
	pos    int
	seedHi uint64 // per-client high bits of every fresh run seed
	seq    uint64
	bw     uint64
	colds  []api.RunRequest
}

func newMixGen(seed uint64, client int) *mixGen {
	g := &mixGen{rng: rand.New(rand.NewPCG(seed, uint64(client)+1)), kinds: d2m.KindNames()}
	// 32 random bits above a 20-bit counter keep fresh seeds distinct
	// across clients and below 2^53, exact in any JSON reader.
	g.seedHi = (g.rng.Uint64() & 0xffffffff) << 20
	return g
}

func (g *mixGen) freshSeed() uint64 {
	g.seq++
	return g.seedHi | g.seq
}

// freshBW returns a link bandwidth this client has not used before.
func (g *mixGen) freshBW() float64 {
	g.bw++
	return 1 + float64(g.bw)/1024
}

func (g *mixGen) kind() string  { return g.kinds[g.rng.IntN(len(g.kinds))] }
func (g *mixGen) bench() string { return engineBenches[g.rng.IntN(len(engineBenches))] }

func runRequest(kind, bench string, seed uint64, bw float64) api.RunRequest {
	return api.RunRequest{
		Kind: kind, Benchmark: bench, Nodes: mixNodes,
		Warmup: mixWarmup, Measure: mixMeasure, Seed: seed, LinkBandwidth: bw,
	}
}

// refill shuffles the next cycle. The first operation of a sequence is
// always a cold run, so repeats and warm requests have history.
func (g *mixGen) refill() {
	g.cycle = append(g.cycle[:0], mixCycle...)
	g.rng.Shuffle(len(g.cycle), func(i, j int) { g.cycle[i], g.cycle[j] = g.cycle[j], g.cycle[i] })
	if len(g.colds) == 0 {
		for i, c := range g.cycle {
			if c == opCold {
				g.cycle[0], g.cycle[i] = g.cycle[i], g.cycle[0]
				break
			}
		}
	}
	g.pos = 0
}

// next returns the client's next operation.
func (g *mixGen) next() op {
	if g.pos == len(g.cycle) {
		g.refill()
	}
	c := g.cycle[g.pos]
	g.pos++
	switch c {
	case opCold:
		r := runRequest(g.kind(), g.bench(), g.freshSeed(), 0)
		g.colds = append(g.colds, r)
		return op{Class: c, Runs: []api.RunRequest{r}}
	case opRepeat:
		window := g.colds[max(0, len(g.colds)-repeatWindow):]
		return op{Class: c, Runs: []api.RunRequest{window[g.rng.IntN(len(window))]}}
	case opWarm:
		pool := g.colds[:min(len(g.colds), warmPool)]
		r := pool[g.rng.IntN(len(pool))]
		r.LinkBandwidth = g.freshBW()
		return op{Class: c, Runs: []api.RunRequest{r}}
	case opBatch:
		kind, bench, seed := g.kind(), g.bench(), g.freshSeed()
		runs := make([]api.RunRequest, batchRuns)
		for i := range runs {
			runs[i] = runRequest(kind, bench, seed, g.freshBW())
		}
		return op{Class: c, Runs: runs}
	default:
		i := g.rng.IntN(len(g.kinds))
		j := (i + 1 + g.rng.IntN(len(g.kinds)-1)) % len(g.kinds)
		bws := make([]float64, sweepBandwidths)
		for k := range bws {
			bws[k] = g.freshBW()
		}
		return op{Class: opSweep, Sweep: &service.SweepRequest{SweepSpec: d2m.SweepSpec{
			Kinds: []string{g.kinds[i], g.kinds[j]}, Benchmarks: []string{g.bench()},
			Seeds: []uint64{g.freshSeed()}, LinkBandwidths: bws,
			Nodes: mixNodes, Warmup: mixWarmup, Measure: mixMeasure,
		}}}
	}
}
