package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"d2m/internal/api"
	"d2m/internal/service/sched"
)

// POST /v1/batch admits up to MaxBatchRuns simulations as one unit and
// streams their results back in request order. Each run flows through
// the same admission pipeline as POST /v1/run — result cache,
// single-flight coalescing, bounded queue — via sched.SubmitGroup,
// which adds the two batch behaviors: admission is all-or-nothing
// (either every uncached run gets a queue slot or the batch is
// rejected 429 with nothing enqueued), and the runs enter the queue
// together, so those sharing a warm identity (equal
// d2m.CellKey.Warm) run as one lockstep lane group.

// BatchRequest is the body of POST /v1/batch; see api.BatchRequest.
// Runs are independent RunRequests; the async field is rejected here,
// since the batch response itself is the collection mechanism.
type BatchRequest = api.BatchRequest

// MaxBatchRuns bounds the runs per batch: enough for a full
// kind x benchmark sweep with replicates, small enough that one POST
// cannot swallow the whole queue several times over.
const MaxBatchRuns = 256

// batchBody is the POST /v1/batch response shape: one api.JobStatus
// per run, in request order (handleBatch streams it).
type batchBody struct {
	Results []api.JobStatus `json:"results"`
}

// maxBatchBodyBytes sizes the request-body cap: MaxBatchRuns requests
// at a few hundred bytes each fit comfortably.
const maxBatchBodyBytes = 4 << 20

// batchEncoders pools the per-result encoding buffers: a batch of 256
// results would otherwise allocate a fresh buffer per element per
// request.
var batchEncoders = sync.Pool{
	New: func() interface{} { return new(bytes.Buffer) },
}

func (f *front) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decode(w, r, maxBatchBodyBytes, &req) {
		return
	}
	if len(req.Runs) == 0 {
		api.WriteErr(w, api.Errorf(api.ErrInvalidRequest, "batch has no runs"))
		return
	}
	if len(req.Runs) > MaxBatchRuns {
		api.WriteErr(w, api.Errorf(api.ErrInvalidRequest,
			"batch has %d runs, limit is %d", len(req.Runs), MaxBatchRuns))
		return
	}

	// Validate every run before admitting any: a batch either enters
	// the queue whole or not at all. The caller is charged one token
	// per run, after validation — an invalid batch costs nothing.
	runs := make([]Run, len(req.Runs))
	for i, rr := range req.Runs {
		if rr.Async {
			api.WriteErr(w, api.Errorf(api.ErrInvalidRequest,
				"runs[%d]: async is not supported in batches; use POST /v1/run", i))
			return
		}
		run, err := newRun(rr)
		if err != nil {
			ae := err.(*api.Error)
			api.WriteErr(w, api.Errorf(ae.Code, "runs[%d]: %s", i, ae.Message))
			return
		}
		runs[i] = run
	}
	caller, ok := f.caller(w, r, len(runs))
	if !ok {
		return
	}
	sts, err := f.b.Batch(r.Context(), caller, runs)
	if err != nil {
		writeResult(w, r, 0, nil, err)
		return
	}

	// Stream the results: elements are encoded one at a time through
	// pooled buffers, so a large batch never materializes twice.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, `{"results":[`)
	for i := range sts {
		if i > 0 {
			io.WriteString(w, ",")
		}
		buf := batchEncoders.Get().(*bytes.Buffer)
		buf.Reset()
		if err := json.NewEncoder(buf).Encode(sts[i]); err == nil {
			w.Write(bytes.TrimRight(buf.Bytes(), "\n"))
		}
		batchEncoders.Put(buf)
	}
	io.WriteString(w, "]}\n")
}

// Batch admits the runs through sched.SubmitGroup and collects them in
// request order. On client disconnect it releases the hold on every
// job not yet collected — each slot took its own waiter reference at
// admission, so releasing per slot is exact even when several slots
// coalesced onto one job.
func (s *Server) Batch(ctx context.Context, tenant string, runs []Run) ([]api.JobStatus, error) {
	subs := make([]sched.Submission, len(runs))
	for i, run := range runs {
		subs[i] = submission(run, tenant)
	}
	adms, err := s.sched.SubmitGroup(subs)
	if err != nil {
		return nil, s.admissionError(err, sched.Interactive, tenant)
	}
	s.metrics.BatchesAccepted.Add(1)
	s.metrics.BatchRuns.Add(uint64(len(runs)))

	sts := make([]api.JobStatus, len(adms))
	for i := range adms {
		if adms[i].Cached {
			sts[i] = runs[i].CachedStatus(adms[i].Result, adms[i].Replicated)
			continue
		}
		select {
		case <-adms[i].Job.Done():
			sts[i] = jobStatus(adms[i].Job.Info())
		case <-ctx.Done():
			for k := i; k < len(adms); k++ {
				if !adms[k].Cached {
					s.sched.Release(adms[k].Job)
				}
			}
			return nil, ctx.Err()
		}
	}
	return sts, nil
}
