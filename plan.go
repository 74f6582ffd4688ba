package d2m

import (
	"cmp"
	"context"
	"fmt"
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

// Project computes the rows from results keyed by canonical cell, as
// RunCells returns them; results must hold every declared cell and may
// hold more. A projection that reads a cell the plan did not declare
// fails, so the declaration and the projection cannot drift apart.
func (p Plan[R]) Project(results map[SweepCell]Result) (R, error) {
	declared := make(map[SweepCell]bool, len(p.Cells))
	for _, c := range DistinctCells(p.Cells) {
		declared[c] = true
	}
	var err error
	rows := p.project(func(kind Kind, bench string, opt Options) Result {
		c := SweepCell{Kind: kind, Benchmark: bench, Options: opt.WithDefaults()}
		r, ok := results[c]
		if !declared[c] {
			err = cmp.Or(err, fmt.Errorf("d2m: projection reads undeclared cell %s/%s %+v", kind, bench, c.Options))
		} else if !ok {
			err = cmp.Or(err, fmt.Errorf("d2m: no result for cell %s/%s %+v", kind, bench, c.Options))
		}
		return r
	})
	if err != nil {
		var zero R
		return zero, err
	}
	return rows, nil
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

// DistinctCells returns the cells with their Options in WithDefaults
// form and duplicates removed, in order of first appearance.
func DistinctCells(cells []SweepCell) []SweepCell {
	seen := make(map[SweepCell]bool, len(cells))
	var out []SweepCell
	for _, c := range cells {
		c.Options = c.Options.WithDefaults()
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// RunCells runs each distinct cell once and returns the results keyed
// by canonical cell (Options in WithDefaults form). Distinct cells
// sharing a LaneKey run together as one RunGroup, and at most
// GOMAXPROCS groups run at a time; the results do not depend on the
// parallelism. On failure RunCells returns the error of the
// lowest-index failing cell.
func RunCells(ctx context.Context, cells []SweepCell) (map[SweepCell]Result, error) {
	var groups [][]GroupLane
	index := make(map[string]int)
	for _, c := range DistinctCells(cells) {
		spec := RunSpec{Kind: c.Kind, Benchmark: c.Benchmark, Options: c.Options}
		key, _ := LaneKey(spec) // a cell never replicates, so it is always lane-eligible
		g, ok := index[key]
		if !ok {
			g = len(groups)
			index[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], GroupLane{Spec: spec})
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
	results := make(map[SweepCell]Result, len(cells))
	for g, lanes := range groups {
		err := errs[g]
		for i, o := range outs[g] {
			err = cmp.Or(err, o.Err)
			s := lanes[i].Spec
			results[SweepCell{Kind: s.Kind, Benchmark: s.Benchmark, Options: s.Options}] = o.Output.Result
		}
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
