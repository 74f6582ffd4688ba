package main

import (
	"math"
	"strings"
	"testing"
)

// captured is a /metrics exposition in the service's format: counters,
// a gauge, a class-labeled histogram and an unlabeled one.
const captured = `# HELP d2m_jobs_accepted_total Jobs admitted to the queue.
# TYPE d2m_jobs_accepted_total counter
d2m_jobs_accepted_total 120
# HELP d2m_cache_hits_total Requests served from the result cache.
# TYPE d2m_cache_hits_total counter
d2m_cache_hits_total{shard="s0"} 30
# HELP d2m_jobs_queued Jobs waiting in the queue.
# TYPE d2m_jobs_queued gauge
d2m_jobs_queued 0
# HELP d2m_tenant_submissions_total Submissions admitted through a tenant's token bucket.
# TYPE d2m_tenant_submissions_total counter
d2m_tenant_submissions_total{tenant="a \"quoted\" name"} 7
# HELP d2m_queue_wait_seconds Seconds from admission to worker pickup, by scheduling class.
# TYPE d2m_queue_wait_seconds histogram
d2m_queue_wait_seconds_bucket{class="interactive",le="0.001"} 40
d2m_queue_wait_seconds_bucket{class="interactive",le="0.005"} 80
d2m_queue_wait_seconds_bucket{class="interactive",le="0.01"} 100
d2m_queue_wait_seconds_bucket{class="interactive",le="+Inf"} 100
d2m_queue_wait_seconds_sum{class="interactive"} 0.25
d2m_queue_wait_seconds_count{class="interactive"} 100
d2m_queue_wait_seconds_bucket{class="bulk",le="0.001"} 0
d2m_queue_wait_seconds_bucket{class="bulk",le="0.005"} 0
d2m_queue_wait_seconds_bucket{class="bulk",le="0.01"} 0
d2m_queue_wait_seconds_bucket{class="bulk",le="+Inf"} 0
d2m_queue_wait_seconds_sum{class="bulk"} 0
d2m_queue_wait_seconds_count{class="bulk"} 0
# HELP d2m_run_seconds Seconds of simulation per job.
# TYPE d2m_run_seconds histogram
d2m_run_seconds_bucket{le="0.001"} 0
d2m_run_seconds_bucket{le="0.005"} 10
d2m_run_seconds_bucket{le="+Inf"} 10
d2m_run_seconds_sum 0.03
d2m_run_seconds_count 10
`

func TestParseExpositionWithHistogram(t *testing.T) {
	e, err := parseExposition(strings.NewReader(captured))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.sum("d2m_jobs_accepted_total"); got != 120 {
		t.Errorf("jobs accepted = %v", got)
	}
	if got := e.sum("d2m_cache_hits_total"); got != 30 {
		t.Errorf("labeled counter = %v", got)
	}
	if got := e.sum("d2m_queue_wait_seconds_count"); got != 100 {
		t.Errorf("histogram count over both classes = %v", got)
	}
	var tenant string
	for _, s := range e {
		if s.Name == "d2m_tenant_submissions_total" {
			tenant = s.Labels["tenant"]
		}
	}
	if tenant != `a "quoted" name` {
		t.Errorf("escaped label value = %q", tenant)
	}
	// The median (50 of 100) falls in the 1-5 ms bucket, a quarter of
	// the way through its 40 observations.
	q, ok := e.quantile("d2m_queue_wait_seconds", 0.5)
	if !ok || math.Abs(q-0.002) > 1e-12 {
		t.Errorf("queue wait p50 = %v, %v; want 0.002", q, ok)
	}
	if q, ok := e.quantile("d2m_run_seconds", 0.5); !ok || math.Abs(q-0.003) > 1e-12 {
		t.Errorf("run p50 = %v, %v; want 0.003", q, ok)
	}
	if _, ok := e.quantile("d2m_missing", 0.5); ok {
		t.Error("quantile of an absent histogram reported ok")
	}
}

func TestExpositionDelta(t *testing.T) {
	before, err := parseExposition(strings.NewReader(captured))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(strings.Replace(captured,
		`d2m_queue_wait_seconds_bucket{class="interactive",le="+Inf"} 100`,
		`d2m_queue_wait_seconds_bucket{class="interactive",le="+Inf"} 110`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	d := after.minus(before)
	if got := d.sum("d2m_jobs_accepted_total"); got != 0 {
		t.Errorf("unchanged counter delta = %v", got)
	}
	// Ten new observations all above 10 ms: the delta's p50 lands in
	// +Inf, reported as the highest finite bound.
	if q, ok := d.quantile("d2m_queue_wait_seconds", 0.5); !ok || q != 0.01 {
		t.Errorf("delta p50 = %v, %v", q, ok)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue", `m{le="1} 3`, "m{a=1} 2", "m abc"} {
		if _, err := parseExposition(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
