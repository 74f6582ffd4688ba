package d2m

import (
	"context"
	"fmt"
)

// The vector engine: RunGroup executes a lane group — K RunSpecs that
// share a warm identity (CellKey.Warm) — as ONE simulation instead of K.
// Same warm identity means same kind, geometry, workload, seed and
// warmup; the specs may differ only in the measurement-side parameters
// (Measure, LinkBandwidth). Because the machine and the access stream
// are deterministic, every lane's scalar run would walk the exact same
// trajectory — each is a prefix of the longest — so the group shares
// one machine, one stream and one warmup, and each lane's Result is
// sampled at its own measurement boundary (sim.MeasureLanes).
// LinkBandwidth, a pure post-processing stretch, is applied by
// projecting the outcome of the lane's window: lanes with an equal
// Measure share one extraction, and each lane stretches its own copy
// from the flit-hop count at the window's boundary. Run and RunGroup
// share one executor (execute) — a scalar run is a one-lane walk — and
// the results are byte-identical, enforced by the lane differential
// tests.

// Engine names for RunOutput.Engine and the service's engine hints.
const (
	// EngineScalar is the one-run-at-a-time path (Run).
	EngineScalar = "scalar"
	// EngineVector is the lockstep lane-group path (RunGroup).
	EngineVector = "vector"
)

// GroupLane is one member of a RunGroup: a spec plus an optional
// per-lane context. A lane whose Ctx is cancelled is demoted — its slot
// reports the context's error — without aborting the group; a nil Ctx
// means the lane only stops with the whole group.
type GroupLane struct {
	Spec RunSpec
	Ctx  context.Context
}

// LaneOutcome is one lane's result: exactly one of Output or Err is
// meaningful (Err nil means Output is valid).
type LaneOutcome struct {
	Output RunOutput
	Err    error
}

// RunGroup simulates a lane group in lockstep and returns one outcome
// per lane, in lane order. Every lane must share one warm identity
// (CellKey.Warm) and pass Run's validation; a mixed or invalid group
// is rejected outright (no partial results). A
// single-lane group runs on the scalar path. ctx cancels the whole
// group; each lane's GroupLane.Ctx cancels just that lane. Warm-state
// reuse works as in Run: the group is projected from a snapshot that
// stores all its windows, restores the snapshot when it lacks some,
// and captures one when there is none.
func RunGroup(ctx context.Context, lanes []GroupLane) ([]LaneOutcome, error) {
	if len(lanes) == 0 {
		return nil, nil
	}
	key0 := lanes[0].Spec.Key().Warm()
	opts := make([]Options, len(lanes))
	var src source
	var wc WarmCache
	for i, ln := range lanes {
		if k := ln.Spec.Key().Warm(); k != key0 {
			return nil, fmt.Errorf("d2m: RunGroup lanes 0 and %d have different warm identities (%q vs %q)", i, key0, k)
		}
		opt, s, err := prepare(ln.Spec)
		if err != nil {
			return nil, fmt.Errorf("d2m: RunGroup lane %d: %w", i, err)
		}
		opts[i] = opt
		if i == 0 {
			src = s
		}
		if wc == nil {
			wc = ln.Spec.Warm
		}
	}

	laneCtx := func(i int) context.Context {
		if lanes[i].Ctx != nil {
			return lanes[i].Ctx
		}
		return ctx
	}
	if len(lanes) == 1 {
		out, err := run(laneCtx(0), lanes[0].Spec, opts[0], src)
		return []LaneOutcome{{Output: out, Err: err}}, err
	}

	rs, err := execute(ctx, key0, src, opts, wc, func(i int) bool { return laneCtx(i).Err() == nil })
	if err != nil {
		return nil, err
	}
	outs := make([]LaneOutcome, len(lanes))
	for i, r := range rs {
		if r == nil {
			err := laneCtx(i).Err()
			if err == nil {
				err = context.Canceled
			}
			outs[i] = LaneOutcome{Err: err}
			continue
		}
		outs[i] = LaneOutcome{Output: RunOutput{Result: *r, Engine: EngineVector}}
	}
	return outs, nil
}
