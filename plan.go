package d2m

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
)

// The experiment planner. Every driver that regenerates a table or a
// figure from ordinary runs declares its cells and a projection from
// their results to its rows, as a Plan. Plans overlap — Figures 5, 6
// and 7 read the same five kinds on the same 45 benchmarks — so a
// caller that regenerates several experiments runs the union of their
// cells once (RunCells, or a server's POST /v1/sweeps) and projects
// every plan from the shared results.

// Plan is an experiment's declared cells and the projection from their
// results to the experiment's rows.
type Plan[R any] struct {
	// Cells are the simulations the projection reads.
	Cells   []SweepCell
	project func(get lookup) R
}

// lookup returns the result of one declared cell.
type lookup func(kind Kind, bench string, opt Options) Result

// grid declares every kind on every benchmark at each of opts.
func grid(kinds []Kind, benches []string, opts ...Options) []SweepCell {
	var cells []SweepCell
	for _, o := range opts {
		for _, k := range kinds {
			for _, b := range benches {
				cells = append(cells, SweepCell{Kind: k, Benchmark: b, Options: o.WithDefaults()})
			}
		}
	}
	return cells
}

// Project computes the rows from results keyed by cell identity, as
// RunCells returns them; results must hold every declared cell and may
// hold more. A projection that reads a cell the plan did not declare
// fails, so the declaration and the projection cannot drift apart.
func (p Plan[R]) Project(results map[CellKey]Result) (R, error) {
	declared := make(map[CellKey]bool, len(p.Cells))
	for _, c := range p.Cells {
		declared[c.Key()] = true
	}
	var err error
	rows := p.project(func(kind Kind, bench string, opt Options) Result {
		k := SweepCell{Kind: kind, Benchmark: bench, Options: opt}.Key()
		r, ok := results[k]
		if !declared[k] {
			err = cmp.Or(err, fmt.Errorf("d2m: projection reads undeclared cell %s/%s %+v", kind, bench, opt.WithDefaults()))
		} else if !ok {
			err = cmp.Or(err, fmt.Errorf("d2m: no result for cell %s/%s %+v", kind, bench, opt.WithDefaults()))
		}
		return r
	})
	if err != nil {
		var zero R
		return zero, err
	}
	return rows, nil
}

// Replicated is the per-metric mean and sample standard deviation of
// one benchmark on one configuration over n decorrelated workload
// seeds, for experiments that want error bars on top of the
// deterministic single-seed runs (ReplicatePlan).
type Replicated struct {
	Kind      Kind
	Benchmark string
	N         int
	// Mean and Std hold, in order: cycles, msgs/KI, EDP, L1-D miss
	// ratio, average miss latency, private-miss fraction.
	CyclesMean, CyclesStd   float64
	MsgsPerKIMean, MsgsStd  float64
	EDPMean, EDPStd         float64
	MissDMean, MissDStd     float64
	MissLatMean, MissLatStd float64
	PrivateMean, PrivateStd float64
}

// MeanResult projects the aggregate onto the single-run Result shape,
// so a replicated run flows through the same caches and sweep plumbing
// as a single run. seed is one of the seed runs' Results: the mean
// carries its Benchmark and Suite labels. Count-style fields that have
// no meaningful mean stay zero.
func (r Replicated) MeanResult(seed Result) Result {
	return Result{
		Kind:            r.Kind,
		Benchmark:       seed.Benchmark,
		Suite:           seed.Suite,
		Cycles:          uint64(r.CyclesMean),
		MsgsPerKI:       r.MsgsPerKIMean,
		EDP:             r.EDPMean,
		MissRatioD:      r.MissDMean,
		AvgMissLatency:  r.MissLatMean,
		PrivateMissFrac: r.PrivateMean,
	}
}

// ReplicatePlan declares a replicated run: bench on kind at the n >= 1
// seeds opt.Seed+1 .. opt.Seed+n, projected to their mean/std
// aggregate. The seed runs are ordinary cells, so they dedup, cache
// and lane-group like any other, and the projection folds their
// Results in seed order: the aggregate does not depend on how, or how
// concurrently, the seeds ran.
func ReplicatePlan(kind Kind, bench string, opt Options, n int) Plan[Replicated] {
	opt = opt.WithDefaults()
	cells := make([]SweepCell, n)
	for i := range cells {
		o := opt
		o.Seed += uint64(i) + 1
		cells[i] = SweepCell{Kind: kind, Benchmark: bench, Options: o}
	}
	return Plan[Replicated]{cells, func(get lookup) Replicated {
		rs := make([]Result, n)
		for i, c := range cells {
			rs[i] = get(c.Kind, c.Benchmark, c.Options)
		}
		return aggregate(kind, bench, rs)
	}}
}

// aggregate folds the seed Results, in seed order, into the mean/std
// summary.
func aggregate(kind Kind, bench string, rs []Result) Replicated {
	n := float64(len(rs))
	stat := func(get func(Result) float64) (mean, std float64) {
		for _, r := range rs {
			mean += get(r)
		}
		mean /= n
		if len(rs) < 2 {
			return mean, 0
		}
		for _, r := range rs {
			d := get(r) - mean
			std += d * d
		}
		return mean, math.Sqrt(std / (n - 1))
	}
	out := Replicated{Kind: kind, Benchmark: bench, N: len(rs)}
	out.CyclesMean, out.CyclesStd = stat(func(r Result) float64 { return float64(r.Cycles) })
	out.MsgsPerKIMean, out.MsgsStd = stat(func(r Result) float64 { return r.MsgsPerKI })
	out.EDPMean, out.EDPStd = stat(func(r Result) float64 { return r.EDP })
	out.MissDMean, out.MissDStd = stat(func(r Result) float64 { return r.MissRatioD })
	out.MissLatMean, out.MissLatStd = stat(func(r Result) float64 { return r.AvgMissLatency })
	out.PrivateMean, out.PrivateStd = stat(func(r Result) float64 { return r.PrivateMissFrac })
	return out
}

// mustRun runs a plan in process for a driver whose signature has no
// error: its cells come from the catalog, so a failure is a bug.
func mustRun[R any](p Plan[R]) R {
	results, err := RunCells(context.Background(), p.Cells)
	if err != nil {
		panic(err)
	}
	rows, err := p.Project(results)
	if err != nil {
		panic(err)
	}
	return rows
}

// DistinctCells returns the cells with equal keys deduplicated, in order
// of first appearance, their Options in WithDefaults form.
func DistinctCells(cells []SweepCell) []SweepCell {
	seen := make(map[CellKey]bool, len(cells))
	var out []SweepCell
	for _, c := range cells {
		if k := c.Key(); !seen[k] {
			seen[k] = true
			c.Options = c.Options.WithDefaults()
			out = append(out, c)
		}
	}
	return out
}

// RunCells runs each distinct cell once and returns the results keyed
// by cell identity. Distinct cells sharing a warm identity run
// together as one RunGroup, and at most GOMAXPROCS groups run at a
// time; the results do not depend on the parallelism. On failure
// RunCells returns the error of the lowest-index failing cell.
func RunCells(ctx context.Context, cells []SweepCell) (map[CellKey]Result, error) {
	var groups [][]GroupLane
	index := make(map[CellKey]int)
	for _, c := range DistinctCells(cells) {
		warm := c.Key().Warm()
		g, ok := index[warm]
		if !ok {
			g = len(groups)
			index[warm] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], GroupLane{Spec: RunSpec{Kind: c.Kind, Benchmark: c.Benchmark, Options: c.Options}})
	}

	outs := make([][]LaneOutcome, len(groups))
	errs := make([]error, len(groups))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for g, lanes := range groups {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			outs[g], errs[g] = RunGroup(ctx, lanes)
		}()
	}
	wg.Wait()
	// Groups are numbered by their first cell, and a failure fails its
	// whole group, so the first failed group holds the lowest-index
	// failing cell.
	results := make(map[CellKey]Result, len(cells))
	for g, lanes := range groups {
		err := errs[g]
		for i, o := range outs[g] {
			err = cmp.Or(err, o.Err)
			results[lanes[i].Spec.Key()] = o.Output.Result
		}
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
