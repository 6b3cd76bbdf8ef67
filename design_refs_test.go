package pod

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// DESIGN.md references cannot dangle. Code comments and documents point
// into DESIGN.md as `DESIGN.md §N "label"`, and a rewrite of a section
// silently strands them. Every such reference in a Go or Markdown file
// must name a `###` heading or a bold paragraph label of section N (the
// quoted words anywhere in it, case and backticks ignored), and every
// `§N` must name a section that exists.

var (
	designSection = regexp.MustCompile(`(?m)^## (\d+)\. `)
	designLabel   = regexp.MustCompile(`(?m)^### (.+)$|^[ \t]*(?:[-*] |\d+\. )?\*\*([^*]+)\*\*`)
	designRef     = regexp.MustCompile(`DESIGN\.md §(\d+) "([^"]+)"`)
	sectionRef    = regexp.MustCompile(`§(\d+)`)
	commentWrap   = regexp.MustCompile(`\n[ \t]*//[ \t]?`)
	spaces        = regexp.MustCompile(`\s+`)
)

// normLabel folds what a reference may write differently from its
// target: backticks, case and line breaks.
func normLabel(s string) string {
	return strings.ToLower(spaces.ReplaceAllString(strings.ReplaceAll(s, "`", ""), " "))
}

// designLabels maps each section number of DESIGN.md to the labels a
// reference may name: its ### headings and bold paragraph labels.
func designLabels(t *testing.T) map[int][]string {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	labels := map[int][]string{}
	starts := designSection.FindAllStringSubmatchIndex(text, -1)
	for i, m := range starts {
		n, _ := strconv.Atoi(text[m[2]:m[3]])
		end := len(text)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		labels[n] = []string{}
		for _, l := range designLabel.FindAllStringSubmatch(text[m[1]:end], -1) {
			labels[n] = append(labels[n], normLabel(l[1]+l[2]))
		}
	}
	return labels
}

func TestDesignReferencesResolve(t *testing.T) {
	labels := designLabels(t)
	if len(labels) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	refs := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".md" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := string(data)
		if ext == ".go" {
			text = commentWrap.ReplaceAllString(text, " ") // a reference may wrap across comment lines
		}
		text = spaces.ReplaceAllString(text, " ")
		for _, m := range sectionRef.FindAllStringSubmatch(text, -1) {
			if n, _ := strconv.Atoi(m[1]); labels[n] == nil {
				t.Errorf("%s: §%d: DESIGN.md has no section %d", path, n, n)
			}
		}
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			refs++
			n, _ := strconv.Atoi(m[1])
			want, found := normLabel(m[2]), false
			for _, l := range labels[n] {
				found = found || strings.Contains(l, want)
			}
			if !found {
				t.Errorf("%s: %s: section %d has no heading or bold label saying %q", path, m[0], n, m[2])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("found no DESIGN.md §N \"…\" reference: the scan is broken")
	}
	t.Logf("%d DESIGN.md references checked", refs)
}
