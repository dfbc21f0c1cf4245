package stats

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("alpha", 1.5)
	tab.AddRow("beta", 10000000.0)
	tab.AddNote("a note with %d", 42)
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== demo ==", "name", "alpha", "1.500", "1.000e+07", "# a note with 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow("x,y", 2)
	var b strings.Builder
	if err := tab.CSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",2\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.23456: "1.235",
		123.456: "123.5",
		1e9:     "1.000e+09",
		1e-5:    "1.000e-05",
		-2.5:    "-2.500",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
