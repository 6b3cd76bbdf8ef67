package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/pod-dedup/pod/internal/stats"
)

// Experiment is one regenerable artifact: its command-line name,
// whether "all" (the paper set committed as results_full.txt) includes
// it, and the function printing its tables from an Env.
type Experiment struct {
	ID    string
	InAll bool
	Print func(e *Env, w io.Writer)
}

// Catalogue is the only list of experiments: cmd/podbench's argument
// check, usage text and "all", and the pod facade's RunExperiment and
// ExperimentIDs are all read off it. The "all" members come first, in
// results_full.txt's order; the rest run on demand only, so the default
// artifact set stays the paper's engine matrix: capacity
// (background-dedup reclamation), streams (per-stream index-cache
// apportionment sweep) and chunking (fixed4k vs gear vs seqcdc on the
// shifted trace).
var Catalogue = []Experiment{
	{"table1", true, show(func(*Env) *stats.Table { return Table1() })},
	{"table2", true, show(first((*Env).Table2))},
	{"fig1", true, show(first((*Env).Fig1))},
	{"fig2", true, show(first((*Env).Fig2))},
	{"fig3", true, show(func(e *Env) *stats.Table { t, _ := e.Fig3(nil); return t })},
	{"fig8", true, show(first((*Env).Fig8))},
	{"fig9", true, show(first((*Env).Fig9Write), first((*Env).Fig9Read))},
	{"fig10", true, show(first((*Env).Fig10))},
	{"fig11", true, show(first((*Env).Fig11))},
	{"overhead", true, show(func(e *Env) *stats.Table { t, _, _ := e.Overhead(); return t })},
	{"raw", true, show((*Env).Raw)},
	{"schemes", true, show((*Env).SchemesTable)},
	{"ablations", true, func(e *Env, w io.Writer) {
		fmt.Fprintln(w, e.ThresholdSweep("homes", nil))
		fmt.Fprintln(w, e.StripeUnitSweep("web-vm", nil))
		fmt.Fprintln(w, e.DupSweep(nil))
		fmt.Fprintln(w, e.LayoutSweep("web-vm"))
		h, d := e.DegradedPoint("homes")
		fmt.Fprintf(w, "Degraded-mode ablation (homes, POD): healthy read %.2fms, one disk failed %.2fms\n\n", h/1000, d/1000)
	}},
	{"capacity", false, show(first((*Env).Capacity))},
	{"streams", false, show(first((*Env).Streams), first((*Env).StreamsScan))},
	{"chunking", false, show(first((*Env).Chunking))},
}

// show prints each table followed by a blank line.
func show(tables ...func(*Env) *stats.Table) func(*Env, io.Writer) {
	return func(e *Env, w io.Writer) {
		for _, t := range tables {
			fmt.Fprintln(w, t(e))
		}
	}
}

// first adapts an experiment returning (table, rows) to its table.
func first[R any](f func(*Env) (*stats.Table, R)) func(*Env) *stats.Table {
	return func(e *Env) *stats.Table { t, _ := f(e); return t }
}

// FindExperiment resolves an id case-insensitively; the error of an
// unknown one lists the catalogue.
func FindExperiment(id string) (Experiment, error) {
	ids := make([]string, len(Catalogue))
	for i, x := range Catalogue {
		if strings.EqualFold(x.ID, id) {
			return x, nil
		}
		ids[i] = x.ID
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}
