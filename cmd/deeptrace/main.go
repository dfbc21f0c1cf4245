// Command deeptrace summarises and validates Chrome trace-event JSON
// files produced by the observability layer (deepbench -trace,
// deeprun -trace): event counts per category, the traced time span,
// the top-N longest spans (the virtual-time critical-path suspects),
// and per-link utilisation hotspots.
//
//	deeptrace trace.json                   # summary, top 10 spans
//	deeptrace -top 25 trace.json           # more critical-path suspects
//	deeptrace -validate trace.json         # schema check, non-zero exit on violations
//	deeptrace -require fault,requeue t.json  # assert event kinds are present
//	deeptrace -domains trace.json          # per-domain blocked-time from a parallel-kernel run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// load reads one trace file into the shared Chrome event form.
func load(path string) ([]obs.ChromeEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []obs.ChromeEvent
	if err := json.NewDecoder(f).Decode(&events); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// validate checks the trace against the schema the encoder guarantees:
// a phase on every event, non-negative timestamps, and non-negative
// durations on complete events. It returns the violations found.
func validate(events []obs.ChromeEvent) []string {
	var bad []string
	for i, e := range events {
		switch {
		case e.Ph == "":
			bad = append(bad, fmt.Sprintf("event %d: empty phase", i))
		case e.Ts < 0:
			bad = append(bad, fmt.Sprintf("event %d (%s): negative timestamp %g", i, e.Name, e.Ts))
		case e.Ph == "X" && e.Dur < 0:
			bad = append(bad, fmt.Sprintf("event %d (%s): negative duration %g", i, e.Name, e.Dur))
		case e.Ph != "M" && e.Name == "":
			bad = append(bad, fmt.Sprintf("event %d: unnamed %q event", i, e.Ph))
		}
	}
	return bad
}

// missing returns the entries of required with no substring match
// against any event name or category.
func missing(events []obs.ChromeEvent, required []string) []string {
	var out []string
	for _, want := range required {
		found := false
		for _, e := range events {
			if strings.Contains(e.Name, want) || strings.Contains(e.Cat, want) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, want)
		}
	}
	return out
}

// processNames maps pid -> process_name metadata.
func processNames(events []obs.ChromeEvent) map[int]string {
	names := map[int]string{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "process_name" {
			if n, ok := e.Args["name"].(string); ok {
				names[e.Pid] = n
			}
		}
	}
	return names
}

// summarize prints the human-readable report.
func summarize(w io.Writer, events []obs.ChromeEvent, top int) {
	names := processNames(events)
	byCat := map[string]int{}
	catDur := map[string]float64{}
	var spans []obs.ChromeEvent
	var minTs, maxTs float64
	seen := false
	for _, e := range events {
		if e.Ph == "M" {
			continue
		}
		cat := e.Cat
		if cat == "" {
			cat = "(none)"
		}
		byCat[cat]++
		end := e.Ts
		if e.Ph == "X" {
			end += e.Dur
			catDur[cat] += e.Dur
			spans = append(spans, e)
		}
		if !seen || e.Ts < minTs {
			minTs = e.Ts
		}
		if !seen || end > maxTs {
			maxTs = end
		}
		seen = true
	}
	fmt.Fprintf(w, "%d events across %d processes", len(events), len(names))
	if seen {
		fmt.Fprintf(w, ", spanning %.3f ms of virtual time", (maxTs-minTs)/1e3)
	}
	fmt.Fprintln(w)

	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	fmt.Fprintln(w, "\nby category:")
	for _, c := range cats {
		fmt.Fprintf(w, "  %-10s %6d events", c, byCat[c])
		if d := catDur[c]; d > 0 {
			fmt.Fprintf(w, "  %12.3f ms total span time", d/1e3)
		}
		fmt.Fprintln(w)
	}

	if len(spans) > 0 {
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Dur > spans[j].Dur })
		if top > len(spans) {
			top = len(spans)
		}
		fmt.Fprintf(w, "\ntop %d spans by duration:\n", top)
		for _, e := range spans[:top] {
			proc := names[e.Pid]
			if proc == "" {
				proc = fmt.Sprintf("pid %d", e.Pid)
			}
			fmt.Fprintf(w, "  %12.3f ms  %-14s %-22s %s\n", e.Dur/1e3, e.Cat, e.Name, proc)
		}
	}

	// Link hotspots come from the end-of-run link-util instants the
	// fabric publishes (cmd flag -trace on an E16-style run).
	type hot struct {
		proc string
		link float64
		util float64
	}
	var hots []hot
	for _, e := range events {
		if e.Name != "link-util" {
			continue
		}
		l, _ := e.Args["link"].(float64)
		u, _ := e.Args["utilisation"].(float64)
		hots = append(hots, hot{proc: names[e.Pid], link: l, util: u})
	}
	if len(hots) > 0 {
		sort.SliceStable(hots, func(i, j int) bool { return hots[i].util > hots[j].util })
		n := len(hots)
		if n > 10 {
			n = 10
		}
		fmt.Fprintf(w, "\nhottest links (%d reported):\n", len(hots))
		for _, h := range hots[:n] {
			fmt.Fprintf(w, "  link %4.0f  utilisation %.3f  %s\n", h.link, h.util, h.proc)
		}
	}
}

// threadNames maps (pid, tid) -> thread_name metadata.
func threadNames(events []obs.ChromeEvent) map[[2]int]string {
	names := map[[2]int]string{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "thread_name" {
			if n, ok := e.Args["name"].(string); ok {
				names[[2]int{e.Pid, e.Tid}] = n
			}
		}
	}
	return names
}

// domainSummary reports how the parallel kernel's domains spent their
// synchronization windows: the "blocked" spans on the per-domain lanes
// (category "domains") record every window a domain sat out waiting
// for its neighbours' clocks. It prints blocked time and span count
// per domain lane, sorted by blocked time.
func domainSummary(w io.Writer, events []obs.ChromeEvent) {
	procs := processNames(events)
	threads := threadNames(events)
	type lane struct {
		pid, tid int
		blocked  float64
		spans    int
	}
	lanes := map[[2]int]*lane{}
	for _, e := range events {
		if e.Ph != "X" || e.Cat != "domains" || e.Name != "blocked" {
			continue
		}
		k := [2]int{e.Pid, e.Tid}
		l := lanes[k]
		if l == nil {
			l = &lane{pid: e.Pid, tid: e.Tid}
			lanes[k] = l
		}
		l.blocked += e.Dur
		l.spans++
	}
	if len(lanes) == 0 {
		fmt.Fprintln(w, "no parallel-kernel domain lanes in this trace (record one with -domains > 1)")
		return
	}
	all := make([]*lane, 0, len(lanes))
	for _, l := range lanes {
		all = append(all, l)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].blocked != all[j].blocked {
			return all[i].blocked > all[j].blocked
		}
		return all[i].tid < all[j].tid
	})
	fmt.Fprintf(w, "domain blocked-time (%d lanes):\n", len(all))
	for _, l := range all {
		name := threads[[2]int{l.pid, l.tid}]
		if name == "" {
			name = fmt.Sprintf("tid %d", l.tid)
		}
		proc := procs[l.pid]
		if proc == "" {
			proc = fmt.Sprintf("pid %d", l.pid)
		}
		fmt.Fprintf(w, "  %-12s %12.3f ms blocked in %5d windows  %s\n", name, l.blocked/1e3, l.spans, proc)
	}
}

// run is the testable body of main: it parses args (without the
// program name), reports on one trace file, and returns the exit code:
// 0 on success, 1 on a load error, schema violations or missing kinds,
// 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deeptrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		top          = fs.Int("top", 10, "number of longest spans to list")
		validateFlag = fs.Bool("validate", false, "check the trace against the event schema; exit 1 on violations")
		require      = fs.String("require", "", "comma-separated event name/category substrings that must be present; exit 1 when missing")
		domainsFlag  = fs.Bool("domains", false, "summarise per-domain blocked time from a parallel-kernel run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: deeptrace [-top N] [-validate] [-require a,b] trace.json")
		return 2
	}

	events, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "deeptrace: %v\n", err)
		return 1
	}

	ok := true
	if *validateFlag {
		if bad := validate(events); len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintf(stderr, "deeptrace: invalid: %s\n", b)
			}
			ok = false
		} else {
			fmt.Fprintf(stdout, "valid: %d events conform to the trace-event schema\n", len(events))
		}
	}
	if *require != "" {
		var wants []string
		for _, w := range strings.Split(*require, ",") {
			if w = strings.TrimSpace(w); w != "" {
				wants = append(wants, w)
			}
		}
		if miss := missing(events, wants); len(miss) > 0 {
			fmt.Fprintf(stderr, "deeptrace: required event kinds missing: %s\n", strings.Join(miss, ", "))
			ok = false
		} else {
			fmt.Fprintf(stdout, "required event kinds present: %s\n", strings.Join(wants, ", "))
		}
	}

	if *domainsFlag {
		domainSummary(stdout, events)
	} else {
		summarize(stdout, events, *top)
	}
	if !ok {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
