package d2m

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"d2m/internal/core"
)

// TestParseKind is the shared-request-validation table: every front end
// (d2msim, d2mserver) resolves kind strings through this one helper.
func TestParseKind(t *testing.T) {
	good := []struct {
		in   string
		want Kind
	}{
		{"base-2l", Base2L},
		{"Base-2L", Base2L},
		{"base3l", Base3L},
		{"d2m-fs", D2MFS},
		{"D2MNS", D2MNS},
		{"d2m-ns-r", D2MNSR},
		{"D2M-NS-R", D2MNSR},
		{"d2mhybrid", D2MHybrid},
		{"d2m-adaptive", D2MAdaptive},
		{"D2MLevelPred", D2MLevelPred},
	}
	for _, tc := range good {
		k, err := ParseKind(tc.in)
		if err != nil || k != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, k, err, tc.want)
		}
	}
	for _, bad := range []string{"", "d2m", "base", "d2m-xl", "basel2"} {
		if _, err := ParseKind(bad); err == nil {
			t.Errorf("ParseKind(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "unknown kind") {
			t.Errorf("ParseKind(%q) error %q lacks context", bad, err)
		}
	}
}

// TestKindNames checks the advertised list round-trips through ParseKind
// and stays in lockstep with the mechanism registry.
func TestKindNames(t *testing.T) {
	names := KindNames()
	mechs := core.Mechanisms()
	if len(names) != len(mechs) {
		t.Fatalf("KindNames() = %v, want %d entries (one per registered mechanism)", names, len(mechs))
	}
	for i, n := range names {
		if n != mechs[i].Name {
			t.Errorf("KindNames()[%d] = %q, registry has %q", i, n, mechs[i].Name)
		}
		if _, err := ParseKind(n); err != nil {
			t.Errorf("advertised name %q does not parse: %v", n, err)
		}
	}
}

// TestOptionsValidate is the table of out-of-range and unknown-string
// request fields shared by the CLI and the server.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opt     Options
		wantErr string // empty: valid
	}{
		{"zero value", Options{}, ""},
		{"paper setup", Options{Nodes: 8, MDScale: 1}, ""},
		{"explicit topologies", Options{Topology: "torus", Placement: "spread"}, ""},
		{"nodes too high", Options{Nodes: 9}, "out of range"},
		{"nodes negative", Options{Nodes: -1}, "out of range"},
		{"mdscale 3", Options{MDScale: 3}, "MDScale"},
		{"negative warmup", Options{Warmup: -1}, "Warmup"},
		{"negative measure", Options{Measure: -1}, "Measure"},
		{"unknown topology", Options{Topology: "hypercube"}, "unknown topology"},
		{"unknown placement", Options{Placement: "random"}, "unknown placement"},
		{"link bandwidth", Options{LinkBandwidth: 0.05}, ""},
		{"negative link bandwidth", Options{LinkBandwidth: -1}, "LinkBandwidth"},
		{"huge negative link bandwidth", Options{LinkBandwidth: -1e300}, "LinkBandwidth"},
		{"NaN link bandwidth", Options{LinkBandwidth: math.NaN()}, "LinkBandwidth"},
		{"infinite link bandwidth", Options{LinkBandwidth: math.Inf(1)}, "LinkBandwidth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opt.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
	// Every advertised topology and placement string must validate.
	for _, topo := range Topologies() {
		if err := (Options{Topology: topo}).Validate(); err != nil {
			t.Errorf("advertised topology %q rejected: %v", topo, err)
		}
	}
	for _, p := range Placements() {
		if err := (Options{Placement: p}).Validate(); err != nil {
			t.Errorf("advertised placement %q rejected: %v", p, err)
		}
	}
}

// TestWithDefaults checks the canonical form used for cache keying.
func TestWithDefaults(t *testing.T) {
	d := Options{}.WithDefaults()
	if d.Nodes != 8 || d.Warmup != 100_000 || d.Measure != 400_000 || d.MDScale != 1 {
		t.Errorf("WithDefaults() = %+v", d)
	}
	explicit := Options{Nodes: 8, Warmup: 100_000, Measure: 400_000, MDScale: 1}
	if d != explicit.WithDefaults() {
		t.Error("defaulted and explicit options differ")
	}
}

// TestRunContextCancel checks a cancelled context aborts a simulation
// mid-run instead of burning through the full measurement window.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	// 50M accesses would take tens of seconds if cancellation failed.
	_, err := Run(ctx, RunSpec{Kind: D2MNSR, Benchmark: "tpc-c",
		Options: Options{Nodes: 2, Warmup: 25_000_000, Measure: 25_000_000}})
	if err != context.DeadlineExceeded {
		t.Fatalf("Run = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v, want well under the full run time", d)
	}

	// An uncancelled context must not perturb results: same answer as Run.
	opt := Options{Nodes: 2, Warmup: 1000, Measure: 4000}
	viaCtx, err := runOne(context.Background(), Base2L, "tpc-c", opt)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runSim(Base2L, "tpc-c", opt)
	if err != nil {
		t.Fatal(err)
	}
	if viaCtx.Cycles != direct.Cycles || viaCtx.Accesses != direct.Accesses {
		t.Errorf("context and plain runs diverge: %d/%d cycles, %d/%d accesses",
			viaCtx.Cycles, direct.Cycles, viaCtx.Accesses, direct.Accesses)
	}
}
