package service

import (
	"context"
	"net/http"

	"d2m/internal/api"
)

// Live result streaming (API v1.6). GET /v1/jobs/{id} and
// GET /v1/sweeps/{id} answer an Accept: text/event-stream request with
// a push stream instead of a poll snapshot. Event ids are dense and
// deterministic per resource — a job emits at most queued(1),
// running(2), terminal(3); a sweep emits one "cell" event per settled
// cell in settle order (ids 1..N) and a final "sweep" event (id N+1)
// — so a client that reconnects with Last-Event-ID resumes exactly
// where the broken stream stopped, and the union of events any client
// sees is independent of when it connected. Every data line is
// json.Marshal of the same value the polling path returns, which is
// what lets the cluster gateway relay shard job streams and follow
// shard sub-sweeps.

// WatchJob pushes a job's state transitions. The channels behind the
// waits are the scheduler's own lifecycle signals: Started closes when
// a worker claims the job, Done when it settles (jobs canceled while
// queued settle without ever starting, hence every wait watches both).
func (s *Server) WatchJob(ctx context.Context, _, id string, last int, emit func(int, api.JobStatus) error) error {
	j, ok := s.sched.Lookup(id)
	if !ok {
		return unknownJob(id)
	}
	if last < 1 {
		// Event 1: the queued snapshot — skipped when the job is
		// already past it.
		select {
		case <-j.Started():
		case <-j.Done():
		default:
			if err := emit(1, jobStatus(j.Info())); err != nil {
				return err
			}
		}
	}
	if last < 2 {
		select {
		case <-j.Done():
		case <-j.Started():
			select {
			case <-j.Done():
			default:
				if err := emit(2, jobStatus(j.Info())); err != nil {
					return err
				}
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case <-j.Done():
	case <-ctx.Done():
		return ctx.Err()
	}
	return emit(3, jobStatus(j.Info()))
}

// SweepCellEvent is the data payload of a sweep stream's "cell" event:
// which grid point settled, and its state rendered exactly as the
// ?cells=1 slot would be.
type SweepCellEvent struct {
	Index int             `json:"index"`
	Cell  SweepCellStatus `json:"cell"`
}

// streamSweep replays the sweep's event log from the client's cursor
// and then follows the live tail. The log (sweep.events) is
// append-only and the broadcast channel is swapped under the same
// lock, so the snapshot-then-wait loop can never miss an append.
func (f *front) streamSweep(w http.ResponseWriter, r *http.Request, sw *sweep) {
	out, ok := api.NewSSEWriter(w)
	if !ok {
		api.WriteJSON(w, http.StatusOK, sw.status(f.workers))
		return
	}
	last := api.LastEventID(r)
	for {
		sw.mu.Lock()
		n := len(sw.events)
		settled := sw.state != SweepRunning
		ch := sw.eventsCh
		if last > n {
			last = n // stale cursor from some other sweep's stream
		}
		pending := append([]int(nil), sw.events[last:n]...)
		sw.mu.Unlock()

		for _, i := range pending {
			last++
			ev := SweepCellEvent{Index: i, Cell: sw.cellStatus(i)}
			if err := out.Event(last, "cell", ev); err != nil {
				return
			}
		}
		if settled {
			// Terminal event: the full status, summary included.
			out.Event(n+1, "sweep", sw.status(f.workers))
			return
		}
		select {
		case <-ch:
		case <-sw.doneCh:
		case <-r.Context().Done():
			return
		}
	}
}
