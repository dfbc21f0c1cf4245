// Command deepstore inspects and maintains the append-only result
// store that deepd, deepbench and deeprun persist into: size and
// liveness stats, query by experiment, epoch-based pruning of stale
// configs, and offline compaction that rewrites live records into
// fresh segments.
//
//	deepstore -dir results stats          # entries, segments, live ratio
//	deepstore -dir results query E16      # stored points of one experiment
//	deepstore -dir results get <key>      # replay one stored text result
//	deepstore -dir results advance        # start a new epoch (deepd does this per boot)
//	deepstore -dir results prune 3        # drop configs untouched for 3 epochs
//	deepstore -dir results compact        # reclaim dead bytes
//
// Pruning only tombstones (the bytes stay on disk); compaction
// reclaims them. Run both against a stopped daemon — the store is
// single-writer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/store"
)

const usage = `usage: deepstore [-dir DIR] <command>

commands:
  stats            store size, segments, live ratio, epoch (JSON)
  query <meta>     stored points tagged <meta> (an experiment id or
                   "workload:<kind>", from deepd or deeprun)
  get <key>        print the stored text result under a content key
  advance          advance the store epoch
  prune <epochs>   tombstone entries untouched for at least <epochs> epochs
  compact          rewrite live records into fresh segments`

// run is the testable body of main.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deepstore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "results", "store directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "deepstore: %v\n", err)
		return 1
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	cmd, cargs := rest[0], rest[1:]
	want := map[string]int{"stats": 0, "query": 1, "get": 1, "advance": 0, "prune": 1, "compact": 0}
	n, ok := want[cmd]
	if !ok {
		fmt.Fprintf(stderr, "deepstore: unknown command %q\n%s\n", cmd, usage)
		return 2
	}
	if len(cargs) != n {
		fmt.Fprintf(stderr, "deepstore: %s takes %d argument(s)\n%s\n", cmd, n, usage)
		return 2
	}

	st, err := store.Open(*dir, store.Options{})
	if err != nil {
		return fail(err)
	}
	defer st.Close()

	switch cmd {
	case "stats":
		buf, err := json.MarshalIndent(st.Stats(), "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", buf)

	case "query":
		infos := st.Query(cargs[0])
		if len(infos) == 0 {
			fmt.Fprintf(stderr, "deepstore: no stored points tagged %q\n", cargs[0])
			return 1
		}
		for _, ki := range infos {
			fmt.Fprintf(stdout, "%s  epoch=%d  bytes=%d  verified=%v\n", ki.Key, ki.Epoch, ki.Bytes, ki.Verified)
		}

	case "get":
		e, ok, err := st.Get(cargs[0])
		if err != nil {
			return fail(err)
		}
		if !ok {
			return fail(fmt.Errorf("no entry under key %s", cargs[0]))
		}
		if len(e.Text) > 0 {
			stdout.Write(e.Text) //nolint:errcheck
		} else {
			stdout.Write(e.Result) //nolint:errcheck
		}

	case "advance":
		epoch, err := st.AdvanceEpoch()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "epoch %d\n", epoch)

	case "prune":
		age, err := strconv.ParseUint(cargs[0], 10, 64)
		if err != nil || age == 0 {
			return fail(fmt.Errorf("prune wants a positive epoch age, got %q", cargs[0]))
		}
		cur := st.Epoch()
		if age > cur {
			fmt.Fprintf(stdout, "pruned 0 entries (store is only %d epochs old)\n", cur)
			return 0
		}
		pruned, err := st.Prune(cur - age + 1)
		if err != nil {
			return fail(err)
		}
		s := st.Stats()
		fmt.Fprintf(stdout, "pruned %d entries untouched for >= %d epochs; %d live, %.0f%% of log live (compact to reclaim)\n",
			pruned, age, s.Entries, 100*s.LiveRatio)

	case "compact":
		before := st.Stats()
		reclaimed, err := st.Compact()
		if err != nil {
			return fail(err)
		}
		after := st.Stats()
		fmt.Fprintf(stdout, "compacted: reclaimed %d bytes; live ratio %.0f%% -> %.0f%%; %d segment(s), %d entries\n",
			reclaimed, 100*before.LiveRatio, 100*after.LiveRatio, after.Segments, after.Entries)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
