package d2m

import (
	"context"
	"fmt"
)

// The vector engine: RunGroup executes a lane group — K RunSpecs that
// share a warm identity (WarmKey) — as ONE simulation instead of K.
// Same warm identity means same kind, geometry, workload, seed and
// warmup; the specs may differ only in the measurement-side parameters
// (Measure, LinkBandwidth). Because the machine and the access stream
// are deterministic, every lane's scalar run would walk the exact same
// trajectory — each is a prefix of the longest — so the group shares
// one machine, one stream and one warmup, and each lane's Result is
// sampled at its own measurement boundary (sim.MeasureLanes).
// LinkBandwidth, a pure post-processing stretch, is applied per lane
// from the flit-hop count at that lane's boundary. Run and RunGroup
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

// LaneKey returns the grouping key under which a spec may join a lane
// group, and whether it is eligible at all. Specs with the same key are
// guaranteed to produce byte-identical results whether run through Run
// or together through RunGroup. Replicated specs are ineligible (each
// replicate is its own simulation with its own seed).
func LaneKey(spec RunSpec) (string, bool) {
	if spec.Replicates >= 2 {
		return "", false
	}
	return warmKey(spec.Kind, warmScope(spec), spec.Options), true
}

// RunGroup simulates a lane group in lockstep and returns one outcome
// per lane, in lane order. Every lane must share the same LaneKey and
// pass Run's validation; a mixed or invalid group is rejected outright
// (no partial results). A single-lane group runs on the scalar path.
// ctx cancels the whole group; each lane's GroupLane.Ctx cancels just
// that lane. Warm-state reuse works as in Run: the group restores a
// snapshot for its shared warm identity when one exists, and deposits
// one otherwise.
func RunGroup(ctx context.Context, lanes []GroupLane) ([]LaneOutcome, error) {
	if len(lanes) == 0 {
		return nil, nil
	}
	key0, ok := LaneKey(lanes[0].Spec)
	if !ok {
		return nil, fmt.Errorf("d2m: RunGroup lane 0 is not lane-eligible (Replicates = %d)", lanes[0].Spec.Replicates)
	}
	for i, ln := range lanes[1:] {
		k, ok := LaneKey(ln.Spec)
		if !ok {
			return nil, fmt.Errorf("d2m: RunGroup lane %d is not lane-eligible (Replicates = %d)", i+1, ln.Spec.Replicates)
		}
		if k != key0 {
			return nil, fmt.Errorf("d2m: RunGroup lanes 0 and %d have different lane keys (%q vs %q)", i+1, key0, k)
		}
	}
	opts := make([]Options, len(lanes))
	var src source
	var wc WarmCache
	for i, ln := range lanes {
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

	rs, err := execute(ctx, lanes[0].Spec.Kind, src, opts, wc, func(i int) bool { return laneCtx(i).Err() == nil })
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
