package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	pod "github.com/pod-dedup/pod"
	"github.com/pod-dedup/pod/internal/experiments"
)

// TestPlanFollowsCatalogue: the argument check has no list of its own.
// Every catalogue id is accepted (in any case), "all" and no argument
// expand to the members the catalogue marks, and an unknown id is
// refused with the same list the library facade names.
func TestPlanFollowsCatalogue(t *testing.T) {
	var inAll []string
	for _, x := range experiments.Catalogue {
		for _, arg := range []string{x.ID, strings.ToUpper(x.ID)} {
			got, err := plan([]string{arg})
			if err != nil || len(got) != 1 || got[0].ID != x.ID {
				t.Fatalf("plan(%q) = %v, %v", arg, got, err)
			}
		}
		if x.InAll {
			inAll = append(inAll, x.ID)
		}
	}
	for _, args := range [][]string{nil, {"all"}, {"ALL"}} {
		got, err := plan(args)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, x := range got {
			ids = append(ids, x.ID)
		}
		if strings.Join(ids, " ") != strings.Join(inAll, " ") {
			t.Fatalf("plan(%v) = %v, want %v", args, ids, inAll)
		}
	}

	_, err := plan([]string{"table2", "fig12"})
	_, libErr := pod.RunExperiment("fig12", 0.01, 1)
	if err == nil || libErr == nil || "pod: "+err.Error() != libErr.Error() {
		t.Fatalf("unknown id: podbench says %q, the library says %q", err, libErr)
	}
	if want := strings.Join(pod.ExperimentIDs(), ", "); !strings.Contains(err.Error(), want) {
		t.Fatalf("refusal %q does not list the catalogue (%s)", err, want)
	}
	if _, err := plan([]string{"table2", "-scale"}); err == nil || !strings.Contains(err.Error(), "must come before") {
		t.Fatalf("misplaced flag: %v", err)
	}
}

// TestRunRefusals: a refused command line exits 2 with the reason and
// the usage — both lists read off the catalogue — and runs nothing.
func TestRunRefusals(t *testing.T) {
	for _, row := range []struct{ args, stderr string }{
		{"fig12", `unknown experiment "fig12"`},
		{"table1 -scale 2", "must come before"},
		{"-trace-sample -1 table1", "-trace-sample"},
		{"-bogus", "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(row.args), &stdout, &stderr); code != 2 {
			t.Errorf("podbench %s: exit %d, want 2", row.args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), row.stderr) {
			t.Errorf("podbench %s: stdout %q, stderr %q", row.args, stdout.String(), stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("podbench -h: exit %d", code)
	}
	for _, want := range []string{"ablations all\n", `on demand, not in "all": capacity streams chunking`} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("usage lacks %q:\n%s", want, stderr.String())
		}
	}
}

var (
	doneLine  = regexp.MustCompile(`(?m)^\[(\S+) done in `)
	titleLine = regexp.MustCompile(`(?m)^(.+)\n=+\n`)
)

// outline is what a podbench output is made of, in order: the
// experiments that ran and the titles of the tables they printed.
func outline(out string) (ran, titles []string) {
	for _, m := range doneLine.FindAllStringSubmatch(out, -1) {
		ran = append(ran, m[1])
	}
	for _, m := range titleLine.FindAllStringSubmatch(out, -1) {
		titles = append(titles, m[1])
	}
	return ran, titles
}

// TestAllIsThePaperSet: `podbench all` prints what results_full.txt
// holds — the same experiments and tables in the same order, the three
// on-demand experiments not among them. (That the figures in them
// match at full scale is `make repro-check`.)
func TestAllIsThePaperSet(t *testing.T) {
	ref, err := os.ReadFile("../../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "0.05", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	wantRan, wantTitles := outline(string(ref))
	ran, titles := outline(stdout.String())
	if len(wantRan) == 0 || strings.Join(ran, " ") != strings.Join(wantRan, " ") {
		t.Errorf("ran %v, results_full.txt has %v", ran, wantRan)
	}
	if strings.Join(titles, "\n") != strings.Join(wantTitles, "\n") {
		t.Errorf("tables:\n%s\nresults_full.txt has:\n%s", strings.Join(titles, "\n"), strings.Join(wantTitles, "\n"))
	}
	for _, x := range experiments.Catalogue {
		if in := strings.Contains(" "+strings.Join(ran, " ")+" ", " "+x.ID+" "); in != x.InAll {
			t.Errorf("%s: ran under \"all\" = %v, catalogue says %v", x.ID, in, x.InAll)
		}
	}
}
