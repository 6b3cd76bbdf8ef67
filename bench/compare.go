package main

import (
	"fmt"
	"io"
	"math"
)

// benchmarkFile is BENCHMARK.json: the contract the metrics are judged
// by. bench reads it from the working directory, the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // share of the baseline's median the metric may worsen by
}

// benchmarkPath is where bench finds the contract: the working
// directory, which is the repository root under `go run ./bench`.
const benchmarkPath = "BENCHMARK.json"

// spread is a sample's interquartile range as a share of its median, 0
// for a single reading.
func spread(v value) float64 {
	if v.N < 2 || v.Value == 0 {
		return 0
	}
	return math.Abs((v.Q3 - v.Q1) / v.Value)
}

// runSets groups a file's records by workload, in first-seen order: a
// file holds one run per workload, or several when -out was repeated.
func runSets(recs []*record) (sets map[string][]*record, order []string) {
	sets = map[string][]*record{}
	for _, r := range recs {
		if sets[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		sets[r.Workload] = append(sets[r.Workload], r)
	}
	return sets, order
}

// across summarises one metric over a set of runs: a single run's own
// figure (with its pass-to-pass quartiles), or the median over runs
// with the runs' quartiles.
func across(runs []*record, name string) value {
	if len(runs) == 1 {
		return runs[0].Metrics[name]
	}
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[name].Value
	}
	return medianOf(vals)
}

func failedPct(runs []*record) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	return pct(float64(failed), float64(attempted))
}

// compareFiles judges run b against baseline a: one row per workload
// and end-to-end metric, each metric's direction and bound taken from
// BENCHMARK.json. A pair whose own rep-to-rep spread exceeds the bound
// is unresolved, not unchanged. The exit code is 1 on any regression or
// any rise in failed operations, 2 when the runs are not comparable.
func compareFiles(contract, pathA, pathB string, w io.Writer) int {
	var bf benchmarkFile
	var a, b report
	for _, f := range []struct {
		path string
		into any
	}{{contract, &bf}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	ea, eb := a.Env, b.Env
	if ea.GOMAXPROCS != eb.GOMAXPROCS || ea.GOGC != eb.GOGC || ea.Clients != eb.Clients || ea.Seed != eb.Seed ||
		ea.GoVersion != eb.GoVersion || ea.Quick != eb.Quick || ea.Trace != eb.Trace || ea.Seconds != eb.Seconds {
		fmt.Fprintf(stderr, "bench: runs are not comparable:\n  a: %+v\n  b: %+v\n", ea, eb)
		return 2
	}
	if ea.Trace {
		fmt.Fprintln(stderr, "bench: -compare judges end-to-end runs; these were taken with -trace")
		return 2
	}
	setsA, order := runSets(a.Workloads)
	setsB, _ := runSets(b.Workloads)

	regressions, unresolved := 0, 0
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "a (n, iqr)", "b (n, iqr)", "worse", "bound", "verdict")
	for _, name := range order {
		ra, rb := setsA[name], setsB[name]
		if rb == nil {
			fmt.Fprintf(stderr, "bench: %s is missing from %s\n", name, pathB)
			return 2
		}
		if ra[0].Scale != rb[0].Scale {
			fmt.Fprintf(stderr, "bench: %s ran at scale %g and %g\n", name, ra[0].Scale, rb[0].Scale)
			return 2
		}
		for _, d := range bf.EndToEnd {
			va, vb := across(ra, d.Name), across(rb, d.Name)
			worse := ratio(vb.Value-va.Value, math.Abs(va.Value))
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spread(va) > d.Bound || spread(vb) > d.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			cell := func(v value) string {
				return fmt.Sprintf("%.5g (%d, %.1f%%)", v.Value, v.N, 100*spread(v))
			}
			fmt.Fprintf(w, "%-14s %-20s %14s %14s %+7.2f%% %6.1f%%  %s\n",
				name, d.Name, cell(va), cell(vb), 100*worse, 100*d.Bound, verdict)
		}
		fa, fb := failedPct(ra), failedPct(rb)
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %8s %7s  %s\n", name, "failed_ops_pct", fa, fb, "", "any", verdict)
	}
	fmt.Fprintf(w, "%d regressions, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}
