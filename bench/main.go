// Command bench is the repository's benchmark: six named workloads,
// fourteen end-to-end metrics plus a failure count, a correctness gate
// that reads every acknowledged block back (also after crash recovery),
// and, with -trace, a traced pass and an isolated layer ladder that
// report about a hundred per-layer metrics. bench/README.md is the
// glossary; BENCHMARK.json at the repository root fixes the names, the
// directions and the bounds.
//
// Usage, from the repository root:
//
//	go run ./bench                         every workload, each in a child process
//	go run ./bench -workload replay-mail   one workload, in this process
//	go run ./bench -trace                  per-layer metrics instead of end-to-end
//	go run ./bench -quick                  smoke-test sizes
//	go run ./bench -out a.json             also write the full record (environment, quartiles)
//	go run ./bench -compare a.json b.json  judge b against a with BENCHMARK.json's bounds
//
// A single-workload run ends its standard output with one JSON line:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

var stderr io.Writer = os.Stderr

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// environment is recorded with every result; -compare refuses to judge
// runs taken under different ones.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       int     `json:"gogc"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Trace      bool    `json:"trace"`
}

// report is what -out writes: the environment and one record per
// workload run.
type report struct {
	Env       environment `json:"env"`
	Workloads []*record   `json:"workloads"`
}

// joinBoolValue lets the boolean -trace flag take a separate value
// ("--trace 1"), which the flag package reads as a stray argument.
func joinBoolValue(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	workload := fs.String("workload", "", "run one workload in this process (default: all, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 0, "XORed into every generator seed; 0 reproduces the generators' committed output")
	fs.Float64Var(&o.seconds, "seconds", 6, "how long the timed phase measures")
	fs.BoolVar(&o.trace, "trace", false, "report per-layer metrics (traced pass + layer ladder) instead of end-to-end")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test sizes: tiny traces, one set-up, one timed pass")
	fs.IntVar(&o.procs, "procs", 0, "GOMAXPROCS (default min(nproc, 4))")
	fs.IntVar(&o.clients, "clients", 0, "submitting goroutines of the serve-* workloads (default GOMAXPROCS)")
	fs.StringVar(&o.spansOut, "spans-out", "", "with -trace and -workload: write every recorded span to this CSV file")
	out := fs.String("out", "", "write the full record (environment, quartiles, sample counts) to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fs.Parse(joinBoolValue(args, "trace")); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		return compareFiles(benchmarkPath, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	// Guards: measuring with more runnable threads than cores, or more
	// submitters than threads, measures the scheduler.
	nproc := runtime.NumCPU()
	if o.procs == 0 {
		o.procs = min(nproc, 4)
	}
	if o.clients == 0 {
		o.clients = o.procs
	}
	switch {
	case o.procs < 1 || o.procs > nproc:
		fmt.Fprintf(stderr, "bench: -procs %d outside [1, nproc=%d]\n", o.procs, nproc)
		return 2
	case o.clients < 1 || o.clients > o.procs:
		fmt.Fprintf(stderr, "bench: -clients %d outside [1, GOMAXPROCS=%d]\n", o.clients, o.procs)
		return 2
	case o.seconds < 0 || o.seconds > 60:
		fmt.Fprintf(stderr, "bench: -seconds %g outside [0, 60]\n", o.seconds)
		return 2
	}
	if o.quick {
		o.seconds = 0 // one pass of each kind
	}
	runtime.GOMAXPROCS(o.procs)
	// Long-lived indexes dominate the heap; podbench and podload relax
	// the GC target the same way unless the environment overrides it.
	gogc := 200
	if v, err := strconv.Atoi(os.Getenv("GOGC")); err == nil {
		gogc = v
	}
	debug.SetGCPercent(gogc)

	rep := &report{Env: environment{
		GoVersion: runtime.Version(), NumCPU: nproc, GOMAXPROCS: o.procs, GOGC: gogc, Clients: o.clients,
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Trace: o.trace,
	}}
	if *workload == "" {
		return runAll(o, rep, *out, stdout)
	}

	s, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	runner := runEndToEnd
	if o.trace {
		runner = runTraced
	}
	rec, err := runner(s, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", s.name, err)
		return 1
	}
	rep.Workloads = []*record{rec}
	printRecord(stdout, rec, o.trace)
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := printResultLine(stdout, rec, o.trace); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// runAll runs every workload in a child process of its own, so each
// one's set-up time and peak RSS are its own, and gathers the children's
// records.
func runAll(o options, rep *report, out string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".", ".bench-out-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	code := 0
	for _, s := range specs {
		file := filepath.Join(dir, s.name+".json")
		args := []string{"-workload", s.name, "-out", file,
			"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-procs", strconv.Itoa(o.procs), "-clients", strconv.Itoa(o.clients),
			"-trace=" + strconv.FormatBool(o.trace), "-quick=" + strconv.FormatBool(o.quick)}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", s.name, err)
			code = 1
		}
		var child report
		if err := readJSON(file, &child); err != nil {
			fmt.Fprintf(stderr, "bench: %s left no record: %v\n", s.name, err)
			code = 1
			continue
		}
		rep.Workloads = append(rep.Workloads, child.Workloads...)
	}
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// gitCommit names the commit measured, when the checkout is a git
// repository and git is installed.
func gitCommit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// writeReport writes rep to path. A file already there is appended to,
// so repeating a run with the same -out gathers a set of runs for
// -compare to take medians over; runs taken under another environment
// are refused rather than mixed.
func writeReport(path string, rep *report) error {
	rep.Env.Commit = gitCommit()
	var old report
	if err := readJSON(path, &old); err == nil {
		if old.Env != rep.Env {
			return fmt.Errorf("%s holds runs from another environment (%+v); not appending", path, old.Env)
		}
		rep.Workloads = append(old.Workloads, rep.Workloads...)
	} else if !os.IsNotExist(err) {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// reported lists the metric names a run of the given mode must print,
// in catalogue order.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printRecord prints one workload's metrics by name with unit, sample
// count and quartiles.
func printRecord(w io.Writer, rec *record, trace bool) {
	fmt.Fprintf(w, "%s  scale=%g requests=%d reps=%d attempted=%d failed=%d (failed_ops_pct=%.4f)\n",
		rec.Workload, rec.Scale, rec.Requests, rec.Reps, rec.Attempted, rec.Failed, pct(float64(rec.Failed), float64(rec.Attempted)))
	for _, d := range reported(trace) {
		v := rec.Metrics[d.name]
		line := fmt.Sprintf("  %-34s %16.6g %-6s n=%d", d.name, v.Value, v.Unit, v.N)
		if v.N > 1 && (v.Q1 != 0 || v.Q3 != 0) {
			line += fmt.Sprintf("  q1=%.6g q3=%.6g", v.Q1, v.Q3)
		}
		fmt.Fprintln(w, line)
	}
	notes := append([]string(nil), rec.Notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

// printResultLine prints the one-line JSON result a driver reads: every
// metric of the run's mode, value and unit only.
func printResultLine(w io.Writer, rec *record, trace bool) error {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{rec.Correct, max(rec.Attempted, 1), rec.Failed, map[string]vu{}}
	for _, d := range reported(trace) {
		v, ok := rec.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", rec.Workload, d.name)
		}
		line.Metrics[d.name] = vu{v.Value, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
