package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"

	"d2m"
	"d2m/internal/api"
)

// Trace ingestion across the fleet (API v1.7). Trace ids are
// content-derived and shard stores are idempotent, so the gateway can
// fan one upload out to EVERY shard without coordination: each shard
// validates and stores the same bytes under the same id, and any shard
// the ring later routes a "trace:<id>" run to can replay it locally.
// Reads relay from the first reachable shard, since a fanned-out
// library is identical fleet-wide.

// PutTrace buffers the upload once, then ingests it on every live
// shard. All shards must accept — a partial fan-out would leave
// "trace:<id>" runnable on some of the ring only — so any rejection or
// unreachable shard fails the upload (retry is safe: stores are
// idempotent).
func (g *Gateway) PutTrace(ctx context.Context, apiKey string, body io.Reader, name string, csv bool) (d2m.TraceInfo, error) {
	var info d2m.TraceInfo
	buf, err := io.ReadAll(body)
	if err != nil {
		return info, api.Errorf(api.ErrInvalidRequest, "bad request body: %v", err)
	}
	path := "/v1/traces"
	if name != "" {
		path += "?name=" + url.QueryEscape(name)
	}
	accepted := false
	for _, p := range g.peers.live() {
		req, err := newRequest(ctx, p, http.MethodPost, path, buf, apiKey)
		if err != nil {
			return info, err
		}
		if csv {
			req.Header.Set("Content-Type", "text/csv")
		}
		fr, err := send(req, p)
		if err != nil {
			return info, api.Errorf(api.ErrInternal,
				"shard %s unreachable during trace fan-out: %v (retry; uploads are idempotent)", p.Name, err)
		}
		if fr.status != http.StatusOK {
			return info, shardError(fr) // the shard's rejection (torn, corrupt, ...)
		}
		if !accepted {
			if err := json.Unmarshal(fr.body, &info); err != nil {
				return info, api.Errorf(api.ErrInternal, "bad shard response: %v", err)
			}
			accepted = true
		}
	}
	if !accepted {
		return info, errNoShard
	}
	g.metrics.TracesForwarded.Add(1)
	return info, nil
}

func (g *Gateway) Traces(ctx context.Context, apiKey string) ([]d2m.TraceInfo, error) {
	var body struct {
		Traces []d2m.TraceInfo `json:"traces"`
	}
	err := g.read(ctx, "/v1/traces", apiKey, &body)
	return body.Traces, err
}

func (g *Gateway) Trace(ctx context.Context, apiKey, id string) (d2m.TraceInfo, error) {
	var info d2m.TraceInfo
	err := g.read(ctx, "/v1/traces/"+id, apiKey, &info)
	return info, err
}

// TraceRaw streams the stored file from the first reachable shard.
func (g *Gateway) TraceRaw(ctx context.Context, apiKey, id string) (io.ReadCloser, error) {
	for _, p := range g.peers.live() {
		req, err := newRequest(ctx, p, http.MethodGet, "/v1/traces/"+id+"/raw", nil, apiKey)
		if err != nil {
			return nil, err
		}
		resp, err := open(req, p)
		if err == nil {
			return resp.Body, nil
		}
		if _, answered := err.(*api.Error); answered {
			return nil, err
		}
	}
	return nil, errNoShard
}
