package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/deep"
)

// TestRun drives the CLI body the way a shell would, on a clean trace,
// a schema-breaking one, and a K=2 E15 trace written by deep.Runner.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean := write("clean.json", `[{"name":"process_name","ph":"M","pid":1,"args":{"name":"run"}},`+
		`{"name":"job 0","cat":"job","ph":"X","ts":0,"dur":5,"pid":1},`+
		`{"name":"fault","cat":"resil","ph":"i","ts":2,"pid":1}]`)
	broken := write("broken.json", `[{"name":"job 0","cat":"job","ph":"X","ts":-1,"dur":5,"pid":1}]`)

	rep, err := (&deep.Runner{Domains: 2, MaxNodes: 1000, Tracing: true}).Run(context.Background(), "E15")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "e15.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteChromeTrace(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	e15 := f.Name()

	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring
		stderr string // substring
	}{
		{"summary", []string{clean}, 0, "3 events across 1 processes, spanning 0.005 ms of virtual time", ""},
		{"validate clean", []string{"-validate", clean}, 0, "valid: 3 events conform", ""},
		{"validate broken", []string{"-validate", broken}, 1, "", "negative timestamp"},
		{"require present", []string{"-require", "fault, job", clean}, 0, "required event kinds present: fault, job", ""},
		{"require missing", []string{"-require", "fault,requeue", clean}, 1, "", "required event kinds missing: requeue"},
		{"no argument", nil, 2, "", "usage: deeptrace"},
		{"unreadable", []string{filepath.Join(dir, "absent.json")}, 1, "", "absent.json"},
		{"domains", []string{"-domains", e15}, 0, "domain blocked-time (2 lanes)", ""},
		{"domains on sequential", []string{"-domains", clean}, 0, "no parallel-kernel domain lanes", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(c.args, &out, &errOut); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, errOut.String())
			}
			if !strings.Contains(out.String(), c.stdout) {
				t.Errorf("stdout lacks %q:\n%s", c.stdout, out.String())
			}
			if !strings.Contains(errOut.String(), c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, errOut.String())
			}
		})
	}
}
