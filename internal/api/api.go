// Package api holds the v1 wire contract of the d2m service: request
// and response shapes, the structured error envelope, the capabilities
// document, and the API revision string. The HTTP layer in
// internal/service renders it in both single-process and cluster mode,
// and the cluster gateway decodes shard replies with it. The package
// depends only on the root d2m types; it knows nothing about
// scheduling or HTTP routing beyond status mapping.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"d2m"
)

// Revision is the wire API revision served by shards and gateway alike,
// reported by GET /v1/capabilities. Gateways refuse to route to shards
// whose revision differs.
const Revision = "v1.9"

// KindNames is the single source of truth for the kind list every
// transport advertises: the capabilities document, the gateway's peer
// prober and the CLI help text all read this. It is derived from the
// root package's registry-backed list, so registering a mechanism is
// the only step needed to advertise it fleet-wide.
func KindNames() []string { return d2m.KindNames() }

// Engine names accepted by the "engine" request hint. EngineAuto (or
// an empty string) lets the scheduler choose; the scalar and vector
// engines are byte-identical by contract, so the hint trades scheduling
// behaviour, never results.
const (
	EngineAuto   = "auto"
	EngineScalar = d2m.EngineScalar
	EngineVector = d2m.EngineVector
)

// NormalizeEngine canonicalizes an engine hint: "" and "auto" become
// "" (scheduler's choice); "scalar" and "vector" pass through; anything
// else is an invalid_request error.
func NormalizeEngine(s string) (string, error) {
	switch s {
	case "", EngineAuto:
		return "", nil
	case EngineScalar, EngineVector:
		return s, nil
	default:
		return "", Errorf(ErrInvalidRequest,
			"unknown engine %q (want auto, scalar or vector)", s)
	}
}

// RunRequest is the body of POST /v1/run and each element of a batch.
// The simulation fields mirror d2m.Options; zero values take the
// paper's defaults. TimeoutMS, Async and Engine control job handling
// and do not affect the cache identity.
type RunRequest struct {
	Kind      string `json:"kind"`
	Benchmark string `json:"benchmark"`
	Nodes     int    `json:"nodes,omitempty"`
	Warmup    int    `json:"warmup,omitempty"`
	Measure   int    `json:"measure,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// MDScale is the canonical "md_scale" field. LegacyMDScale catches
	// the retired "mdscale" spelling: its compat window (one release,
	// API v1.0) has ended, and any use is rejected with a targeted
	// error pointing at md_scale rather than a generic unknown-field
	// decode failure.
	MDScale       int     `json:"md_scale,omitempty"`
	LegacyMDScale int     `json:"mdscale,omitempty"`
	Bypass        bool    `json:"bypass,omitempty"`
	Prefetch      bool    `json:"prefetch,omitempty"`
	Topology      string  `json:"topology,omitempty"`
	Placement     string  `json:"placement,omitempty"`
	LinkBandwidth float64 `json:"link_bandwidth,omitempty"`
	// Replicates, when >= 2, runs the simulation that many times with
	// decorrelated seeds (seed+1 .. seed+n) and returns the mean/std
	// aggregate next to a mean-projected Result. Capped at
	// MaxReplicates; 0 and 1 both mean a single run.
	Replicates int `json:"replicates,omitempty"`

	// TimeoutMS caps this job's total lifetime (queue wait + run) in
	// milliseconds. Zero takes the server's default deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async makes POST /v1/run return 202 with the job id immediately;
	// the result is collected via GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
	// Engine hints the execution path ("auto" default, "scalar",
	// "vector"); see GET /v1/capabilities for what the server supports.
	// API v1.5.
	Engine string `json:"engine,omitempty"`
}

// MaxReplicates bounds replicates per request: above this, error bars
// have long converged and the job is a denial-of-service risk.
const MaxReplicates = 64

// Normalize validates the request through the root package's shared
// parse helpers and returns the canonical simulation identity: kind,
// benchmark, defaulted options, the canonical replicate count (0 for a
// single run, 2..MaxReplicates for a replicated one), and the
// canonical engine hint ("" for auto). Errors carry wire codes, so
// handlers map them straight onto the envelope. The cluster gateway
// normalizes each request the same way to derive its warm-identity
// shard key without re-implementing validation.
func (r RunRequest) Normalize() (d2m.Kind, string, d2m.Options, int, string, error) {
	fail := func(err error) (d2m.Kind, string, d2m.Options, int, string, error) {
		return 0, "", d2m.Options{}, 0, "", err
	}
	kind, err := d2m.ParseKind(r.Kind)
	if err != nil {
		return fail(Errorf(ErrInvalidRequest, "%v", err))
	}
	if _, ok := d2m.SuiteOf(r.Benchmark); !ok {
		return fail(Errorf(ErrUnknownBenchmark,
			"d2m: unknown benchmark %q (see GET /v1/capabilities)", r.Benchmark))
	}
	if r.LegacyMDScale != 0 {
		return fail(Errorf(ErrInvalidRequest,
			`the "mdscale" field was removed in API v1.1; use "md_scale"`))
	}
	reps, err := NormalizeReplicates(r.Replicates)
	if err != nil {
		return fail(err)
	}
	engine, err := NormalizeEngine(r.Engine)
	if err != nil {
		return fail(err)
	}
	opt := d2m.Options{
		Nodes:         r.Nodes,
		Warmup:        r.Warmup,
		Measure:       r.Measure,
		Seed:          r.Seed,
		MDScale:       r.MDScale,
		Bypass:        r.Bypass,
		Prefetch:      r.Prefetch,
		Topology:      r.Topology,
		Placement:     r.Placement,
		LinkBandwidth: r.LinkBandwidth,
	}.WithDefaults()
	if err := opt.Validate(); err != nil {
		return fail(Errorf(ErrInvalidRequest, "%v", err))
	}
	if err := d2m.CheckBenchmark(r.Benchmark, opt); err != nil {
		return fail(Errorf(ErrInvalidRequest, "%v", err))
	}
	return kind, r.Benchmark, opt, reps, engine, nil
}

// NormalizeReplicates canonicalizes a requested replicate count: 0 and
// 1 both mean a single run (0), anything above MaxReplicates or below
// zero is rejected.
func NormalizeReplicates(n int) (int, error) {
	switch {
	case n < 0:
		return 0, Errorf(ErrInvalidRequest, "replicates = %d is negative", n)
	case n > MaxReplicates:
		return 0, Errorf(ErrInvalidRequest,
			"replicates = %d exceeds the limit of %d", n, MaxReplicates)
	case n < 2:
		return 0, nil
	default:
		return n, nil
	}
}

// BatchRequest is the body of POST /v1/batch: an ordered list of runs
// admitted all-or-nothing.
type BatchRequest struct {
	Runs []RunRequest `json:"runs"`
}

// JobState is a job's position in its lifecycle. The spellings match
// the scheduler's internal states one-to-one.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// JobStatus is the JSON view of a job (GET /v1/jobs/{id} and the
// synchronous POST /v1/run response).
type JobStatus struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Kind      string   `json:"kind"`
	Benchmark string   `json:"benchmark"`
	// Cached is set on POST responses served from the result cache
	// without touching the queue.
	Cached bool `json:"cached,omitempty"`
	// Priority is the job's scheduling class: "interactive" for runs
	// and batches, "bulk" for sweep cells.
	Priority string `json:"priority,omitempty"`
	// Engine names the execution path that produced the result
	// ("scalar" or "vector"); set once the job is done, omitted for
	// cache hits (the engine that originally computed a cached result
	// is not recorded). API v1.5.
	Engine string `json:"engine,omitempty"`
	// QueuePosition is the job's 1-based place in its class queue while
	// it is queued; omitted once it starts.
	QueuePosition int         `json:"queue_position,omitempty"`
	QueueWaitMS   float64     `json:"queue_wait_ms,omitempty"`
	RunMS         float64     `json:"run_ms,omitempty"`
	Error         string      `json:"error,omitempty"`
	Result        *d2m.Result `json:"result,omitempty"`
	// Replicated carries the mean/std aggregate of a job submitted
	// with replicates >= 2; Result then holds the mean projection of
	// the aggregated metrics.
	Replicated *d2m.Replicated `json:"replicated,omitempty"`
}

// KernelCap describes one algorithmic kernel in the capabilities
// document.
type KernelCap struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// Capabilities is the body of GET /v1/capabilities: the server's
// catalog and limits, keyed by the API revision.
type Capabilities struct {
	APIRevision string `json:"api_revision"`
	// Engines lists the execution paths the server can use ("scalar"
	// always; "vector" when lane grouping is enabled). API v1.5.
	Engines []string `json:"engines"`
	// MaxLanes is the largest lane group the vector engine will form;
	// 1 means vector execution is disabled. API v1.5.
	MaxLanes      int                 `json:"max_lanes"`
	Suites        map[string][]string `json:"suites"`
	Kinds         []string            `json:"kinds"`
	Topologies    []string            `json:"topologies"`
	Placements    []string            `json:"placements"`
	Kernels       []KernelCap         `json:"kernels"`
	MaxReplicates int                 `json:"max_replicates"`
	// SSE reports that GET /v1/jobs/{id} and GET /v1/sweeps/{id} stream
	// live state over text/event-stream when the request asks for it
	// (Accept header), with Last-Event-ID resume. API v1.6.
	SSE bool `json:"sse"`
	// SweepsList reports the GET /v1/sweeps listing endpoint
	// (state/limit/cursor pagination, same contract as GET /v1/jobs).
	// API v1.6.
	SweepsList bool `json:"sweeps_list"`
	// Tenancy describes multi-tenant admission; omitted when the server
	// runs open (no -tenants file). API v1.6.
	Tenancy *TenancyCaps `json:"tenancy,omitempty"`
	// Traces reports the trace-ingestion endpoints (POST/GET /v1/traces):
	// uploaded access traces become "trace:<id>" benchmarks. API v1.7.
	Traces bool `json:"traces"`
}

// TenancyCaps advertises a multi-tenant server's admission contract
// and, when the capabilities request carried a valid X-API-Key, the
// caller's own limits.
type TenancyCaps struct {
	Enabled bool `json:"enabled"`
	// Tenant is the caller's resolved tenant name; empty when the
	// request carried no (or an unknown) key.
	Tenant string `json:"tenant,omitempty"`
	// Rate is the caller's sustained admission rate in jobs per second
	// (0 = unlimited), Burst its token-bucket capacity, and Share its
	// fair-queueing weight within each priority class.
	Rate  float64 `json:"rate,omitempty"`
	Burst int     `json:"burst,omitempty"`
	Share int     `json:"share,omitempty"`
}

// ErrCode is a machine-readable error category.
type ErrCode string

const (
	ErrInvalidRequest   ErrCode = "invalid_request"   // 400: malformed body or parameters
	ErrUnknownBenchmark ErrCode = "unknown_benchmark" // 400: benchmark not in the catalog
	ErrUnauthorized     ErrCode = "unauthorized"      // 401: missing or unknown API key
	ErrNotFound         ErrCode = "not_found"         // 404: unknown job or sweep id
	ErrConflict         ErrCode = "conflict"          // 409: job already settled
	ErrOverloaded       ErrCode = "overloaded"        // 429: job queue full, retry later
	ErrRateLimited      ErrCode = "rate_limited"      // 429: tenant budget exhausted
	ErrDraining         ErrCode = "draining"          // 503: server shutting down
	ErrInternal         ErrCode = "internal"          // 500: unexpected failure
)

// HTTPStatus maps a code to its status line.
func (c ErrCode) HTTPStatus() int {
	switch c {
	case ErrInvalidRequest, ErrUnknownBenchmark:
		return http.StatusBadRequest
	case ErrUnauthorized:
		return http.StatusUnauthorized
	case ErrNotFound:
		return http.StatusNotFound
	case ErrConflict:
		return http.StatusConflict
	case ErrOverloaded, ErrRateLimited:
		return http.StatusTooManyRequests
	case ErrDraining:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// Error is an error with a wire code; handlers surface any other error
// type as ErrInternal. The optional fields below Message enrich 429
// envelopes (API v1.6): RetryAfterMS is the machine-readable backoff
// hint (the Retry-After header, kept for compat, is derived from it),
// and Tenant/Limit identify the exhausted budget on rate_limited
// rejections.
type Error struct {
	Code         ErrCode
	Message      string
	RetryAfterMS int64
	Tenant       string
	Limit        float64
}

func (e *Error) Error() string { return e.Message }

// Errorf builds a coded error from a format string.
func Errorf(code ErrCode, format string, args ...interface{}) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Unauthorized is the 401 for a missing (key == "") or unknown API
// key.
func Unauthorized(key string) *Error {
	if key == "" {
		return Errorf(ErrUnauthorized, "missing X-API-Key header")
	}
	return Errorf(ErrUnauthorized, "unknown API key")
}

// ErrorInfo is the structured half of the envelope. RetryAfterMS,
// Tenant and Limit appear on 429s (API v1.6): rate_limited carries all
// three (whose budget ran out and at what sustained rate), overloaded
// carries the backoff hint and, on multi-tenant servers, the tenant
// whose class queue filled.
type ErrorInfo struct {
	Code         ErrCode `json:"code"`
	Message      string  `json:"message"`
	RetryAfterMS int64   `json:"retry_after_ms,omitempty"`
	Tenant       string  `json:"tenant,omitempty"`
	Limit        float64 `json:"limit,omitempty"`
}

// Err is the Error that renders as this envelope, so a relayed
// rejection renders byte-identically to the original.
func (i ErrorInfo) Err() *Error {
	return &Error{Code: i.Code, Message: i.Message,
		RetryAfterMS: i.RetryAfterMS, Tenant: i.Tenant, Limit: i.Limit}
}

// ErrorBody is the JSON error envelope:
//
//	{"error": {"code": "...", "message": "..."}}
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// WriteErr renders err through the envelope at its mapped status. An
// Error carrying RetryAfterMS also sets the Retry-After header (whole
// seconds, rounded up) so pre-v1.6 clients keep their backoff hint.
func WriteErr(w http.ResponseWriter, err error) {
	ae, ok := err.(*Error)
	if !ok {
		ae = &Error{Code: ErrInternal, Message: err.Error()}
	}
	if ae.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((ae.RetryAfterMS+999)/1000, 10))
	}
	WriteJSON(w, ae.Code.HTTPStatus(), ErrorBody{
		Error: ErrorInfo{
			Code: ae.Code, Message: ae.Message,
			RetryAfterMS: ae.RetryAfterMS, Tenant: ae.Tenant, Limit: ae.Limit,
		},
	})
}

// WriteJSON renders v as indented JSON at the given status.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
