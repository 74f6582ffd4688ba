package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"d2m/internal/api"
	"d2m/internal/service"
)

// Batch serves cached slots from the gateway's result cache and
// partitions the remaining runs by warm-identity ring owner into
// per-shard sub-batches that forward concurrently. Each shard's
// admission keeps its all-or-nothing guarantee; across shards the
// gateway composes them conservatively: if ANY sub-batch is rejected
// (429 included, with its Retry-After), the whole batch answers with
// that rejection and no partial results. Sub-batches that were
// admitted run to completion on their shards and land in the
// content-addressed caches, so the client's retry re-serves those runs
// without recomputation and converges on the full batch.
func (g *Gateway) Batch(ctx context.Context, apiKey string, runs []service.Run) ([]api.JobStatus, error) {
	sts := make([]api.JobStatus, len(runs))
	done := make([]bool, len(runs))
	for i, run := range runs {
		if res, rep, ok := g.cache.Get(run.CacheKey()); ok {
			g.metrics.CacheHits.Add(1)
			sts[i], done[i] = run.CachedStatus(res, rep), true
		}
	}

	// Forward the rest, re-partitioning by live ring owner each round so
	// a shard lost mid-batch fails over instead of failing the batch.
	type subResult struct {
		idxs []int
		fr   forwardResult
		err  error // the shard was lost; these slots retry next round
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		groups := map[string][]int{}
		for i, run := range runs {
			if done[i] {
				continue
			}
			owners := g.peers.owners(run.Key().String(), 1)
			if len(owners) == 0 {
				return nil, errNoShard
			}
			groups[owners[0].Name] = append(groups[owners[0].Name], i)
		}
		if len(groups) == 0 {
			break
		}

		results := make(chan subResult, len(groups))
		var wg sync.WaitGroup
		for name, idxs := range groups {
			p, _ := g.peers.byName(name)
			wg.Add(1)
			go func(p Peer, idxs []int) {
				defer wg.Done()
				sub := api.BatchRequest{Runs: make([]api.RunRequest, len(idxs))}
				for k, i := range idxs {
					sub.Runs[k] = runs[i].Req
				}
				body, _ := json.Marshal(sub) // plain fields: cannot fail
				fr, err := g.try(ctx, p, http.MethodPost, "/v1/batch", body, apiKey)
				results <- subResult{idxs: idxs, fr: fr, err: err}
			}(p, idxs)
		}
		wg.Wait()
		close(results)
		g.metrics.BatchesForwarded.Add(uint64(len(groups)))
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}

		for sub := range results {
			if sub.err != nil {
				continue
			}
			if sub.fr.status != http.StatusOK {
				return nil, shardError(sub.fr)
			}
			var body struct {
				Results []api.JobStatus `json:"results"`
			}
			if err := json.Unmarshal(sub.fr.body, &body); err != nil || len(body.Results) != len(sub.idxs) {
				return nil, api.Errorf(api.ErrInternal,
					"shard %s returned a malformed batch response", sub.fr.peer.Name)
			}
			for k, i := range sub.idxs {
				st := body.Results[k]
				if st.ID != "" {
					st.ID = routedID(st.ID, sub.fr.peer)
				}
				if st.State == api.JobDone && st.Result != nil {
					g.cache.Put(runs[i].CacheKey(), *st.Result, st.Replicated)
				}
				sts[i], done[i] = st, true
			}
		}
	}
	for i := range done {
		if !done[i] {
			return nil, errNoShard
		}
	}
	return sts, nil
}
