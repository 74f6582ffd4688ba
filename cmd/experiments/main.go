// Command experiments regenerates the paper's tables and figures
// (DESIGN.md maps each experiment id to its driver) and prints them —
// as rendered text, or as JSON rows for downstream tooling.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig5 -measure 1000000
//	experiments -exp tab4 -out table4.txt
//	experiments -exp fig6 -json | jq '.[].EDP'
//
// The selected experiments' cells are planned together: their union
// runs once, each distinct cell once, and every experiment projects its
// rows from the shared results. In process the cells run through
// d2m.RunCells (on GOMAXPROCS workers). With -server they run as one
// POST /v1/sweeps on a running d2mserver, so repeated invocations share
// its content-addressed result cache (and, with -store on the server,
// survive restarts). With -sweep, the command runs a parameter grid
// instead of a named experiment, through the same two executors:
//
//	experiments -exp fig7 -server http://localhost:8080
//	experiments -sweep '{"kinds":["base-2l","d2m-ns-r"],"benchmarks":["tpc-c","fft"]}'
//	experiments -sweep @grid.json -server http://localhost:8080 -json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/report"
	"d2m/internal/service"
)

// results holds the planned cells' results, keyed by cell identity.
type results = map[d2m.CellKey]d2m.Result

// experiment couples an id with how to produce its structured rows
// (for -json) and its rendered text. A planned experiment declares its
// cells and projects its rows from the results of the union of the
// selected experiments' cells; the others run their own simulations.
type experiment struct {
	id, title string
	cells     func(opt d2m.Options) []d2m.SweepCell // nil: not planned
	// run returns nil rows for a static table, which has no JSON form.
	run func(opt d2m.Options, res results) (rows interface{}, text string, err error)
}

// static is a specification table rendered from the implementation.
func static(id, title string, text func(d2m.Options) string) experiment {
	return experiment{id: id, title: title, run: func(opt d2m.Options, _ results) (interface{}, string, error) {
		return nil, text(opt), nil
	}}
}

// direct is an experiment that is not a grid of ordinary runs.
func direct[R any](id, title string, rows func(d2m.Options) (R, error), render func(R) string) experiment {
	return experiment{id: id, title: title, run: func(opt d2m.Options, _ results) (interface{}, string, error) {
		r, err := rows(opt)
		return r, render(r), err
	}}
}

// planned is an experiment projected from its plan's cells.
func planned[R any](id, title string, plan func(d2m.Options) d2m.Plan[R], render func(R) string) experiment {
	return experiment{id: id, title: title,
		cells: func(opt d2m.Options) []d2m.SweepCell { return plan(opt).Cells },
		run: func(opt d2m.Options, res results) (interface{}, string, error) {
			r, err := plan(opt).Project(res)
			return r, render(r), err
		}}
}

// catalog binds a driver that takes a benchmark list to its default list.
func catalog[R any](plan func(d2m.Options, []string) d2m.Plan[R]) func(d2m.Options) d2m.Plan[R] {
	return func(opt d2m.Options) d2m.Plan[R] { return plan(opt, nil) }
}

func registry() []experiment {
	return []experiment{
		static("tab1", "Table I (LI encoding)", func(d2m.Options) string { return d2m.RenderTableI() }),
		static("tab2", "Table II (region classification)", func(d2m.Options) string { return d2m.RenderTableII() }),
		static("tab3", "Table III (configuration)", d2m.RenderTableIII),
		planned("fig5", "Figure 5 (network traffic)", d2m.Figure5Plan, d2m.RenderFigure5),
		planned("fig6", "Figure 6 (EDP)", d2m.Figure6Plan, d2m.RenderFigure6),
		planned("fig7", "Figure 7 (speedup)", d2m.Figure7Plan, d2m.RenderFigure7),
		planned("tab4", "Table IV (hit ratios)", d2m.TableIVPlan, d2m.RenderTableIV),
		planned("tab5", "Table V (invalidations, private misses)", d2m.TableVPlan, d2m.RenderTableV),
		planned("pkmo", "Appendix (event frequencies)", d2m.AppendixPKMOPlan, d2m.RenderPKMO),
		planned("scaling", "MD scaling (fn.5)", catalog(d2m.MDScalingPlan), d2m.RenderScaling),
		planned("pressure", "SRAM pressure (§V-B)", d2m.SRAMPressurePlan, d2m.RenderPressure),
		planned("nodes", "Node scaling (extension)", catalog(d2m.NodeScalingPlan), d2m.RenderNodeScaling),
		direct("d2d", "§II-A MD1 coverage (D2D)",
			func(opt d2m.Options) (d2m.CoverageReport, error) { return d2m.D2DCoverage(opt, "facesim") },
			func(rep d2m.CoverageReport) string { return d2m.RenderCoverage(rep, "facesim") }),
		planned("topology", "Interconnect sweep (extension)", catalog(d2m.TopologySweepPlan), d2m.RenderTopology),
		planned("kernels", "Algorithmic kernels (extension)", d2m.KernelComparisonPlan, d2m.RenderKernels),
		direct("storage", "SRAM budgets (§V-B)",
			func(opt d2m.Options) ([]d2m.StorageReport, error) { return d2m.StorageComparison(opt), nil },
			d2m.RenderStorage),
		direct("mix", "Multiprogram interference (extension)",
			func(opt d2m.Options) ([]d2m.MixRow, error) { return d2m.MixStudy(opt, nil), nil },
			d2m.RenderMix),
		planned("placement", "§IV-B placement policies (ablation)", catalog(d2m.PlacementSweepPlan), d2m.RenderPlacement),
	}
}

func main() {
	ids := func() string {
		var out []string
		for _, e := range registry() {
			out = append(out, e.id)
		}
		return strings.Join(out, ", ")
	}()
	var (
		exp      = flag.String("exp", "all", "experiment: "+ids+", or all")
		nodes    = flag.Int("nodes", 8, "number of cores")
		warmup   = flag.Int("warmup", 200_000, "warmup accesses")
		measure  = flag.Int("measure", 600_000, "measured accesses")
		out      = flag.String("out", "", "write output to this file instead of stdout")
		asJSON   = flag.Bool("json", false, "emit structured rows as JSON instead of rendered text")
		server   = flag.String("server", "", "base URL of a running d2mserver; the cells run there as one sweep")
		sweep    = flag.String("sweep", "", "run a parameter-grid sweep: JSON SweepSpec, or @file")
		baseline = flag.String("baseline", "", "sweep baseline kind (default: Base-2L when present, else the first kind)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
			}
		}()
	}

	exec := runLocal
	if srv := strings.TrimRight(*server, "/"); srv != "" {
		exec = remoteCells(srv)
	}
	opt := d2m.Options{Nodes: *nodes, Warmup: *warmup, Measure: *measure}

	var text string
	var err error
	if *sweep != "" {
		text, err = runSweep(exec, *sweep, *baseline, *asJSON)
	} else {
		var exps []experiment
		for _, e := range registry() {
			if *exp == "all" || *exp == e.id {
				exps = append(exps, e)
			}
		}
		if len(exps) == 0 {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want one of %s, or all)\n", *exp, ids)
			os.Exit(2)
		}
		text, err = generate(exps, opt, *asJSON, exec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	emit(text, *out)
}

// runLocal is the in-process executor.
func runLocal(cells []d2m.SweepCell) (results, error) {
	return d2m.RunCells(context.Background(), cells)
}

// generate regenerates the experiments: the union of their cells runs
// once through exec, each distinct cell once, and every experiment then
// renders its text, or its rows as JSON.
func generate(exps []experiment, opt d2m.Options, asJSON bool, exec func([]d2m.SweepCell) (results, error)) (string, error) {
	var cells []d2m.SweepCell
	for _, e := range exps {
		if e.cells != nil {
			cells = append(cells, e.cells(opt)...)
		}
	}
	var res results
	if len(cells) > 0 {
		fmt.Fprintf(os.Stderr, "running %d distinct cells...\n", len(d2m.DistinctCells(cells)))
		var err error
		if res, err = exec(cells); err != nil {
			return "", err
		}
	}
	var b strings.Builder
	payload := map[string]interface{}{}
	for _, e := range exps {
		fmt.Fprintf(os.Stderr, "running %s...\n", e.title)
		rows, text, err := e.run(opt, res)
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.id, err)
		}
		if rows != nil {
			payload[e.id] = rows
		}
		fmt.Fprintf(&b, "==================== %s ====================\n%s\n", e.title, text)
	}
	if !asJSON {
		return b.String(), nil
	}
	if len(exps) == 1 {
		return indentJSON(payload[exps[0].id])
	}
	return indentJSON(payload)
}

// indentJSON renders v in the -json output format.
func indentJSON(v interface{}) (string, error) {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.String(), err
}

// emit writes the run's output to stdout or -out.
func emit(text, out string) {
	if out == "" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
}

// remoteCells returns an executor that runs the distinct cells on the
// server at base as one POST /v1/sweeps with an explicit cell list. It
// follows the sweep's event stream and takes each Result from the cell
// events; a cell that fails cancels the sweep.
func remoteCells(base string) func([]d2m.SweepCell) (results, error) {
	return func(cells []d2m.SweepCell) (results, error) {
		cells = d2m.DistinctCells(cells)
		body, err := json.Marshal(service.SweepRequest{Cells: cells})
		if err != nil {
			return nil, err
		}
		resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			var eb api.ErrorBody
			if json.Unmarshal(raw, &eb) == nil && eb.Error.Message != "" {
				return nil, fmt.Errorf("server: %s (%s)", eb.Error.Message, eb.Error.Code)
			}
			return nil, fmt.Errorf("server: %s", resp.Status)
		}
		var st service.SweepStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "sweep %s accepted: %d cells\n", st.ID, st.Total)

		req, _ := http.NewRequest(http.MethodGet, base+"/v1/sweeps/"+st.ID, nil) // base served the POST
		req.Header.Set("Accept", "text/event-stream")
		if resp, err = http.DefaultClient.Do(req); err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		out := make(results, len(cells))
		settled := false
		err = api.ScanEvents(resp.Body, func(_ int, event string, data []byte) error {
			var ev service.SweepCellEvent
			switch {
			case event == "sweep":
				settled = true
			case event != "cell":
			case json.Unmarshal(data, &ev) != nil || ev.Index < 0 || ev.Index >= len(cells):
				return fmt.Errorf("sweep %s: malformed cell event %s", st.ID, data)
			case ev.Cell.State != api.JobDone || ev.Cell.Result == nil:
				c := cells[ev.Index]
				return fmt.Errorf("cell %d (%s/%s) %s: %s", ev.Index, c.Kind, c.Benchmark, ev.Cell.State, ev.Cell.Error)
			default:
				out[cells[ev.Index].Key()] = *ev.Cell.Result
			}
			return nil
		})
		if err == nil && (!settled || len(out) != len(cells)) {
			err = fmt.Errorf("sweep %s: stream ended with %d of %d cells", st.ID, len(out), len(cells))
		}
		if err != nil {
			// Stop whatever the server still runs for this sweep.
			del, _ := http.NewRequest(http.MethodDelete, base+"/v1/sweeps/"+st.ID, nil) // as the GET
			if resp, derr := http.DefaultClient.Do(del); derr == nil {
				resp.Body.Close()
			}
			return nil, err
		}
		return out, nil
	}
}

// parseSweepSpec reads the -sweep argument: inline JSON, or @file.
func parseSweepSpec(arg string) (d2m.SweepSpec, error) {
	data := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		var err error
		if data, err = os.ReadFile(arg[1:]); err != nil {
			return d2m.SweepSpec{}, err
		}
	}
	var spec d2m.SweepSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return d2m.SweepSpec{}, fmt.Errorf("sweep spec: %v", err)
	}
	return spec, nil
}

// runSweep expands the grid, runs its cells through exec and returns
// the summary: rendered text, or JSON rows.
func runSweep(exec func([]d2m.SweepCell) (results, error), specArg, baseline string, asJSON bool) (string, error) {
	spec, err := parseSweepSpec(specArg)
	if err != nil {
		return "", fmt.Errorf("sweep: %w", err)
	}
	cells, err := spec.Expand()
	if err != nil {
		return "", fmt.Errorf("sweep: %w", err)
	}
	base, err := d2m.SweepBaseline(baseline, cells)
	if err != nil {
		return "", err
	}
	res, err := exec(cells)
	if err != nil {
		return "", err
	}
	results := make([]*d2m.Result, len(cells))
	for i, c := range cells {
		r := res[c.Key()]
		results[i] = &r
	}
	summary := service.SweepSummary{Baseline: base.String(), Kinds: d2m.SummarizeSweep(base, cells, results)}
	if asJSON {
		return indentJSON(summary)
	}
	t := report.NewTable(fmt.Sprintf("Sweep: %d kinds x %d benchmarks (baseline %s)",
		len(spec.Kinds), len(spec.Benchmarks), summary.Baseline),
		"kind", "cells", "speedup(%)", "msgs/KI", "EDP")
	for _, row := range summary.Kinds {
		t.AddRowf(row.Kind, row.Cells, row.SpeedupPct, row.MsgsPerKI, row.EDP)
	}
	return t.Render(), nil
}
