package main

import (
	"context"
	"os"
	"strings"
	"testing"
)

// TestRun drives the CLI body the way a shell would: the default
// table rendering is held to the golden file, every usage error exits
// 1 with its diagnostic, and the flags of the retired bench mode are
// unknown to flag parsing (exit 2) rather than silently accepted.
func TestRun(t *testing.T) {
	golden, err := os.ReadFile("../../deep/testdata/E01.golden")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // exact, when non-empty
		stderr string // substring
	}{
		{"golden", []string{"-run", "E01"}, 0, string(golden), ""},
		{"csv and json", []string{"-csv", "-json"}, 1, "", "-csv and -json are mutually exclusive"},
		{"resume without store", []string{"-resume"}, 1, "", "-resume needs -store"},
		{"store with trace", []string{"-store", "unused", "-trace", "unused.json"}, 1, "", "-store cannot be combined with -trace/-metrics"},
		{"empty run list", []string{"-run", ","}, 1, "", `-run "," names no experiments`},
		{"unknown id", []string{"-run", "E99"}, 1, "", `unknown experiment "E99" (try -list)`},
		{"bad fidelity", []string{"-fidelity", "exact"}, 1, "", "exact"},
		{"removed -bench", []string{"-bench", "3"}, 2, "", "flag provided but not defined: -bench"},
		{"removed -speedup", []string{"-speedup", "1,2,4"}, 2, "", "flag provided but not defined: -speedup"},
		{"renamed -window", []string{"-window", "8"}, 2, "", "flag provided but not defined: -window"},
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
		})
	}
}
