package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeJournal(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadMetricNested(t *testing.T) {
	core := writeJournal(t, "core.json",
		`{"benchmark":"B","metrics":{"accesses_per_sec_cold":8.0e6,"allocs_per_access":0.001}}`)
	svc := writeJournal(t, "svc.json",
		`{"benchmark":"B","jobs_per_sec":{"cold":450,"cached":6000}}`)
	top := writeJournal(t, "top.json", `{"cold":450}`)
	// The core journal carries a host fingerprint object beside its
	// metrics; the metric lookup must see through it.
	host := writeJournal(t, "host.json",
		`{"benchmark":"B","host":{"cpu":"Intel(R) Xeon(R) Processor","gomaxprocs":2,"go":"go1.24.0"},`+
			`"metrics":{"accesses_per_sec_cold":7.5e6,"trace_replay_accesses_per_sec":6.0e6}}`)

	cases := []struct {
		path, metric string
		want         float64
	}{
		{core, "accesses_per_sec_cold", 8.0e6},
		{svc, "cached", 6000},
		{top, "cold", 450},
		{host, "accesses_per_sec_cold", 7.5e6},
		{host, "trace_replay_accesses_per_sec", 6.0e6},
	}
	for _, tc := range cases {
		got, err := readMetric(tc.path, tc.metric)
		if err != nil {
			t.Errorf("%s/%s: %v", tc.path, tc.metric, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s/%s = %g, want %g", tc.path, tc.metric, got, tc.want)
		}
	}

	if _, err := readMetric(core, "nope"); err == nil {
		t.Error("missing metric did not error")
	}
}

func TestRegression(t *testing.T) {
	cases := []struct {
		oldVal, newVal, want float64
	}{
		{100, 90, 10},   // 10% drop
		{100, 110, -10}, // improvement reads negative
		{100, 100, 0},
		{0, 50, 0}, // degenerate baseline never fails the gate
	}
	for _, tc := range cases {
		if got := regression(tc.oldVal, tc.newVal); got != tc.want {
			t.Errorf("regression(%g, %g) = %g, want %g", tc.oldVal, tc.newVal, got, tc.want)
		}
	}
}

func TestSplitMetrics(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"cold", []string{"cold"}},
		{"cold,cold_snapshot,batch_cached", []string{"cold", "cold_snapshot", "batch_cached"}},
		{" cold , cached ", []string{"cold", "cached"}},
		{",,", nil},
		{"", nil},
	}
	for _, tc := range cases {
		got := splitMetrics(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("splitMetrics(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("splitMetrics(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}
