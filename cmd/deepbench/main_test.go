package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/deep"
)

// TestRun drives the CLI body the way a shell would: the default
// table rendering is held to the golden file, every output format and
// export writes what it names, a stored sweep resumes byte-identically,
// every usage error exits 1 with its diagnostic, and the flags of the
// retired bench mode are unknown to flag parsing (exit 2) rather than
// silently accepted.
func TestRun(t *testing.T) {
	golden, err := os.ReadFile("../../deep/testdata/E01.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "results")
	tracePath, metricsPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.csv")
	unsampled := filepath.Join(dir, "unsampled.csv")
	nonEmpty := func(t *testing.T, paths ...string) {
		for _, p := range paths {
			if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
				t.Errorf("%s missing or empty (%v)", p, err)
			}
		}
	}
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // exact, when non-empty
		stderr string // substring
		// check, when set, inspects the run's output further.
		check func(t *testing.T, stdout string)
	}{
		{"golden", []string{"-run", "E01"}, 0, string(golden), "", nil},
		{"list", []string{"-list"}, 0, "", "", func(t *testing.T, stdout string) {
			lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
			exps := deep.Experiments()
			if len(lines) != len(exps) {
				t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(exps), stdout)
			}
			for i, e := range exps {
				if !strings.HasPrefix(lines[i], e.ID+"  ") {
					t.Errorf("-list line %d is %q, want %s first", i, lines[i], e.ID)
				}
			}
		}},
		{"csv", []string{"-csv", "-run", "E04"}, 0, "", "", func(t *testing.T, stdout string) {
			if !strings.Contains(stdout, "nodes,regular@booster,") {
				t.Errorf("-csv printed no CSV header:\n%s", stdout)
			}
		}},
		{"json", []string{"-json", "-run", "E04"}, 0, "", "", func(t *testing.T, stdout string) {
			var results []struct {
				ID    string          `json:"id"`
				Table json.RawMessage `json:"table"`
			}
			if err := json.Unmarshal([]byte(stdout), &results); err != nil {
				t.Fatalf("-json output does not decode: %v\n%s", err, stdout)
			}
			if len(results) != 1 || results[0].ID != "E04" || len(results[0].Table) == 0 {
				t.Errorf("-json holds %+v, want one E04 result with a table", results)
			}
		}},
		{"store then resume", []string{"-run", "E04", "-store", storeDir}, 0, "", "", func(t *testing.T, stdout string) {
			var out, errOut strings.Builder
			if code := run(context.Background(), []string{"-run", "E04", "-store", storeDir, "-resume"}, &out, &errOut); code != 0 {
				t.Fatalf("resume exit %d; stderr:\n%s", code, errOut.String())
			}
			if !strings.Contains(errOut.String(), "resumed 1 of 1") {
				t.Errorf("resume did not answer from the store:\n%s", errOut.String())
			}
			if out.String() != stdout {
				t.Errorf("resumed output differs:\n--- fresh ---\n%s--- resumed ---\n%s", stdout, out.String())
			}
		}},
		{"trace and metrics", []string{"-run", "E16", "-trace", tracePath, "-metrics", metricsPath, "-sample", "0.5"}, 0, "", "wrote " + metricsPath,
			func(t *testing.T, _ string) { nonEmpty(t, tracePath, metricsPath) }},
		{"metrics without sampling", []string{"-run", "E04", "-metrics", unsampled, "-sample", "0"}, 1, "", "-metrics needs a positive -sample",
			func(t *testing.T, _ string) {
				if _, err := os.Stat(unsampled); !os.IsNotExist(err) {
					t.Errorf("refused export left %s behind (%v)", unsampled, err)
				}
			}},
		{"csv and json", []string{"-csv", "-json"}, 1, "", "-csv and -json are mutually exclusive", nil},
		{"resume without store", []string{"-resume"}, 1, "", "-resume needs -store", nil},
		{"store with trace", []string{"-store", "unused", "-trace", "unused.json"}, 1, "", "-store cannot be combined with -trace/-metrics", nil},
		{"empty run list", []string{"-run", ","}, 1, "", `-run "," names no experiments`, nil},
		{"unknown id", []string{"-run", "E99"}, 1, "", `unknown experiment "E99" (try -list)`, nil},
		{"bad fidelity", []string{"-fidelity", "exact"}, 1, "", "exact", nil},
		{"removed -bench", []string{"-bench", "3"}, 2, "", "flag provided but not defined: -bench", nil},
		{"removed -speedup", []string{"-speedup", "1,2,4"}, 2, "", "flag provided but not defined: -speedup", nil},
		{"renamed -window", []string{"-window", "8"}, 2, "", "flag provided but not defined: -window", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(context.Background(), c.args, &out, &errOut); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, errOut.String())
			}
			if c.stdout != "" && out.String() != c.stdout {
				t.Errorf("stdout differs from golden:\n%s", out.String())
			}
			if c.code != 0 && out.Len() != 0 {
				t.Errorf("failed invocation wrote to stdout:\n%s", out.String())
			}
			if !strings.Contains(errOut.String(), c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, errOut.String())
			}
			if c.check != nil {
				c.check(t, out.String())
			}
		})
	}
}

// TestFlagTableMatchesExperimentsDoc: the flag table in EXPERIMENTS.md
// lists exactly the flags deepbench registers, so neither side can
// gain or lose a flag alone.
func TestFlagTableMatchesExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Running the registry: deepbench flags\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no deepbench flag section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z]+)").FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}

	var out, usage strings.Builder
	if code := run(context.Background(), []string{"-h"}, &out, &usage); code != 2 {
		t.Fatalf("-h exit %d, want 2", code)
	}
	var registered []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z]+)`).FindAllStringSubmatch(usage.String(), -1) {
		registered = append(registered, m[1])
	}

	slices.Sort(documented)
	slices.Sort(registered)
	if len(registered) == 0 || !slices.Equal(documented, registered) {
		t.Fatalf("EXPERIMENTS.md documents %v\ndeepbench registers     %v", documented, registered)
	}
}

// TestExperimentsTableMatchesRegistry: the registry table in
// EXPERIMENTS.md and the registry deepbench runs name the same
// experiments, with the same titles and the same leading paper
// reference (the part before any parenthesis). A row "A01–A04" stands
// for four experiments whose titles all read "<title>: …".
func TestExperimentsTableMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Registry\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no registry section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	leadingRef := func(ref string) string {
		ref, _, _ = strings.Cut(strings.ReplaceAll(ref, "–", "-"), " (")
		return strings.TrimSpace(ref)
	}
	type row struct{ title, ref string }
	rows := map[string]row{}
	ranged := map[string]bool{}
	rowRE := regexp.MustCompile(`(?m)^\| ([AE]\d\d)(?:–([AE]\d\d))? \| ([^|]+) \| ([^|]+) \|`)
	for _, m := range rowRE.FindAllStringSubmatch(section, -1) {
		first, last := m[1], m[2]
		if last == "" {
			last = first
		}
		lo, _ := strconv.Atoi(first[1:])
		hi, _ := strconv.Atoi(last[1:])
		if last[0] != first[0] || hi < lo {
			t.Fatalf("bad id range %s–%s", first, last)
		}
		for i := lo; i <= hi; i++ {
			id := fmt.Sprintf("%c%02d", first[0], i)
			if _, dup := rows[id]; dup {
				t.Errorf("%s is listed twice", id)
			}
			rows[id] = row{strings.TrimSpace(m[3]), leadingRef(m[4])}
			ranged[id] = hi > lo
		}
	}
	seen := map[string]bool{}
	for _, e := range deep.Experiments() {
		seen[e.ID] = true
		r, ok := rows[e.ID]
		switch {
		case !ok:
			t.Errorf("%s (%s) is registered but not in the EXPERIMENTS.md table", e.ID, e.Title)
			continue
		case ranged[e.ID] && !strings.HasPrefix(e.Title, r.title+": "):
			t.Errorf("%s: registry title %q does not start with the table's %q", e.ID, e.Title, r.title+": ")
		case !ranged[e.ID] && e.Title != r.title:
			t.Errorf("%s: table title %q, registry title %q", e.ID, r.title, e.Title)
		}
		if want := leadingRef(e.PaperRef); r.ref != want {
			t.Errorf("%s: table paper ref %q, registry %q", e.ID, r.ref, want)
		}
	}
	for id := range rows {
		if !seen[id] {
			t.Errorf("%s is in the EXPERIMENTS.md table but not registered", id)
		}
	}
}
