package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"d2m/internal/api"
)

// Shard event streams (API v1.6). A job lives on exactly one shard, so
// a job stream through the gateway is the shard's stream, relayed
// frame by frame with the job id rewritten to its routed form and the
// shard's event ids kept — a client that reconnects through the
// gateway replays the same Last-Event-ID it would give the shard. The
// gateway also follows its sub-sweeps' streams to settle fleet sweep
// cells as they finish.

// open issues req to p and returns a 200 answer for the caller to
// read and close; any other answer becomes the shard's error.
func open(req *http.Request, p Peer) (*http.Response, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		buf, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return nil, shardError(forwardResult{status: resp.StatusCode, body: buf, peer: p})
	}
	return resp, nil
}

// stream opens the event stream at path on p, resuming after event id
// last.
func stream(ctx context.Context, p Peer, path, apiKey string, last int) (io.ReadCloser, error) {
	req, err := newRequest(ctx, p, http.MethodGet, path, nil, apiKey)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if last > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(last))
	}
	resp, err := open(req, p)
	if err != nil {
		return nil, err
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		resp.Body.Close()
		return nil, api.Errorf(api.ErrInternal, "shard %s answered without a stream", p.Name)
	}
	return resp.Body, nil
}

// WatchJob relays the owning shard's job stream. Only the data line's
// id changes: the shard and the HTTP layer marshal the same JobStatus,
// so each relayed frame is the shard's apart from the routed id.
func (g *Gateway) WatchJob(ctx context.Context, apiKey, id string, last int, emit func(int, api.JobStatus) error) error {
	p, local, err := g.route(id)
	if err != nil {
		return err
	}
	events, err := stream(ctx, p, "/v1/jobs/"+local, apiKey, last)
	if err != nil {
		return err
	}
	defer events.Close()
	return api.ScanEvents(events, func(id int, event string, data []byte) error {
		var st api.JobStatus
		if event != "state" || json.Unmarshal(data, &st) != nil {
			return nil
		}
		if st.ID != "" {
			st.ID = routedID(st.ID, p)
		}
		return emit(id, st)
	})
}
