package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/service"
	"d2m/internal/service/sched"
)

// Fleet sweeps: the HTTP layer expands the grid once, exactly as a
// shard would, and hands the cells to RunCells, which partitions them
// by warm-identity ring owner and submits each shard one sub-sweep
// through the explicit-Cells form of POST /v1/sweeps. Every cell of a
// warm identity lands on one shard, so snapshot reuse and single-flight
// coalescing work exactly as in a single process — the fleet never
// splits a lane group. Each sub-sweep's event stream settles cells as
// they finish; when a shard drains or dies mid-sweep, its unfinished
// cells are resubmitted to the remapped ring owners — the sweep
// survives losing a shard as long as one remains.

// RunCells drives a fleet sweep to completion: rounds of
// partition-by-owner and sub-sweep submission until every cell
// settles or no shard remains. Cells stranded by a shard that drained
// or died rejoin the pending set and remap to the ring's new owners
// next round — bounded by one round per fleet member plus one, which
// covers shards failing one after another. Gateway shutdown cancels
// the sweep like a DELETE does.
func (g *Gateway) RunCells(ctx context.Context, apiKey string, cells []d2m.SweepCell, spec service.CellSpec, settle func(int, service.CellOutcome)) error {
	if g.begin() {
		defer g.wg.Done()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(g.ctx, cancel)()
	g.metrics.SweepsAccepted.Add(1)

	keys := make([]string, len(cells))
	var (
		mu      sync.Mutex
		settled = make([]bool, len(cells))
	)
	settleOnce := func(i int, cs service.SweepCellStatus) {
		mu.Lock()
		first := !settled[i]
		settled[i] = true
		mu.Unlock()
		if first {
			settle(i, service.CellOutcome{SweepCellStatus: cs})
		}
	}
	pending := func() []int {
		mu.Lock()
		defer mu.Unlock()
		var out []int
		for i, ok := range settled {
			if !ok {
				out = append(out, i)
			}
		}
		return out
	}
	for i, c := range cells {
		keys[i] = sched.CacheKey(c.Kind, c.Benchmark, c.Options, spec.Replicates)
		// Cells the gateway has already seen (this run or a merged
		// journal) settle without touching any shard. Replicated cells
		// go to their shard, which answers from its seeds.
		if res, ok := g.cache.Get(keys[i]); ok && spec.Replicates < 2 {
			g.metrics.CacheHits.Add(1)
			settleOnce(i, service.SweepCellStatus{State: api.JobDone, Cached: true, Result: &res})
		}
	}

	for round := 0; round <= len(g.peers.peers) && ctx.Err() == nil; round++ {
		left := pending()
		if len(left) == 0 {
			break
		}
		groups := map[string][]int{}
		for _, i := range left {
			if owners := g.peers.owners(cells[i].Key().String(), 1); len(owners) > 0 {
				groups[owners[0].Name] = append(groups[owners[0].Name], i)
			}
		}
		if len(groups) == 0 {
			break // fleet is gone; the remaining cells settle canceled
		}
		if round > 0 {
			g.metrics.CellsRemapped.Add(uint64(len(left)))
			g.logf("sweep: remapping %d cells (round %d)", len(left), round)
		}
		var wg sync.WaitGroup
		for name, idxs := range groups {
			p, _ := g.peers.byName(name)
			wg.Add(1)
			go func(p Peer, idxs []int) {
				defer wg.Done()
				g.subSweep(ctx, apiKey, p, cells, idxs, spec, func(k int, cs service.SweepCellStatus) {
					i := idxs[k]
					if spec.Replicates < 2 && cs.State == api.JobDone && cs.Result != nil {
						g.cache.Put(keys[i], *cs.Result)
					}
					settleOnce(i, cs)
				})
			}(p, idxs)
		}
		wg.Wait()
	}

	err := ctx.Err()
	if err == nil {
		err = errNoShard
	}
	left := pending()
	for _, i := range left {
		settleOnce(i, service.SweepCellStatus{State: api.JobCanceled, Error: err.Error()})
	}
	if len(left) == 0 {
		return nil
	}
	return err
}

// subSweep submits one shard-local slice of the sweep and follows its
// event stream, reporting each done or failed cell by its index in
// idxs. Canceled cells (the shard started draining mid-sweep) are not
// reported, and neither is anything after a lost shard or a broken
// stream: those cells stay pending and remap next round.
func (g *Gateway) subSweep(ctx context.Context, apiKey string, p Peer, cells []d2m.SweepCell, idxs []int, spec service.CellSpec, report func(k int, cs service.SweepCellStatus)) {
	sub := service.SweepRequest{
		Cells:      make([]d2m.SweepCell, len(idxs)),
		TimeoutMS:  spec.TimeoutMS,
		Replicates: spec.Replicates,
		Engine:     spec.Engine,
	}
	for k, i := range idxs {
		sub.Cells[k] = cells[i]
	}
	body, _ := json.Marshal(sub) // plain fields: cannot fail
	fr, err := g.try(ctx, p, http.MethodPost, "/v1/sweeps", body, apiKey)
	if err != nil {
		return
	}
	if fr.status != http.StatusAccepted {
		// A rejection cannot heal by remapping: settle the slice as
		// failed so the sweep terminates with the shard's error.
		msg := shardError(fr).Message
		for k := range idxs {
			report(k, service.SweepCellStatus{State: api.JobFailed, Error: msg})
		}
		return
	}
	var st service.SweepStatus
	if err := json.Unmarshal(fr.body, &st); err != nil || st.ID == "" {
		return
	}
	defer func() {
		if ctx.Err() != nil {
			// Gateway-side cancel: release the shard's cells too.
			dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			do(dctx, p, http.MethodDelete, "/v1/sweeps/"+st.ID, nil, apiKey)
			cancel()
		}
	}()

	events, err := stream(ctx, p, "/v1/sweeps/"+st.ID, apiKey, 0)
	if _, answered := err.(*api.Error); answered {
		return // an answer but no stream: the sub-sweep vanished (shard restarted)
	}
	terminal := false
	if err == nil {
		defer events.Close()
		err = api.ScanEvents(events, func(_ int, event string, data []byte) error {
			var ev service.SweepCellEvent
			switch {
			case event == "sweep":
				terminal = true
			case event == "cell" && json.Unmarshal(data, &ev) == nil && ev.Index >= 0 && ev.Index < len(idxs):
				if ev.Cell.State == api.JobDone || ev.Cell.State == api.JobFailed {
					report(ev.Index, ev.Cell)
				}
			}
			return nil
		})
	}
	if !terminal && ctx.Err() == nil {
		// A lost connection or a stream that breaks before its
		// terminal event is a lost shard; the prober restores it if it
		// is still alive.
		g.peers.setState(p.Name, PeerDown)
		g.logf("peer %s is down (sweep stream: %v)", p.Name, err)
	}
}
