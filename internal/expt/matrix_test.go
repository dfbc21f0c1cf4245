package expt_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/deep"
	"repro/internal/expt"
)

// artefacts is every byte of one observed experiment run that a user,
// a golden file or deepd's cache can compare against another run's.
type artefacts struct {
	table, trace, csv, json []byte
	hash                    string
}

// observedRun runs one registry experiment through the public Runner
// with tracing and metrics sampling on and renders every artefact.
func observedRun(id string, fid deep.Fidelity) (artefacts, error) {
	var a artefacts
	r := &deep.Runner{Fidelity: fid, Tracing: true, MetricsEvery: 0.5}
	rep, err := r.Run(context.Background(), id)
	if err != nil {
		return a, err
	}
	var table, trace, csv, js bytes.Buffer
	if err := rep.Results[0].Table.Render(&table); err != nil {
		return a, err
	}
	if err := rep.WriteChromeTrace(&trace); err != nil {
		return a, err
	}
	if err := rep.WriteMetricsCSV(&csv); err != nil {
		return a, err
	}
	if err := (deep.JSONSink{}).Write(&js, rep); err != nil {
		return a, err
	}
	if a.hash, err = deep.ContentHash(rep.Results[0].Table); err != nil {
		return a, err
	}
	a.table, a.trace, a.csv, a.json = table.Bytes(), trace.Bytes(), csv.Bytes(), js.Bytes()
	return a, nil
}

// TestDeterminismMatrix closes the class of bug that kept tier-1 red:
// a host-dependent value (then: sync.Pool's hit rate, exported as the
// sim_pool_hit_rate gauge) reaching a byte-compared artefact. Every
// registry experiment runs twice at the same time, beside the other
// experiments' runs, and every artefact of the pair must be
// byte-identical: rendered table, Chrome trace, metrics CSV, result
// JSON and content hash. Nothing GC-, scheduler- or wall-clock-
// dependent survives that. -short skips only E15's packet-fidelity
// sweep (100k nodes packet by packet).
func TestDeterminismMatrix(t *testing.T) {
	type point struct {
		id  string
		fid deep.Fidelity
	}
	var points []point
	for _, id := range expt.IDs() {
		points = append(points, point{id, deep.DefaultFidelity})
	}
	if !testing.Short() {
		points = append(points, point{"E15", deep.Packet})
	}
	for _, p := range points {
		t.Run(p.id+"/"+p.fid.String(), func(t *testing.T) {
			t.Parallel()
			var runs [2]artefacts
			var errs [2]error
			var wg sync.WaitGroup
			for i := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					runs[i], errs[i] = observedRun(p.id, p.fid)
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			a, b := runs[0], runs[1]
			for _, c := range []struct {
				what string
				a, b []byte
			}{
				{"table", a.table, b.table},
				{"Chrome trace", a.trace, b.trace},
				{"metrics CSV", a.csv, b.csv},
				{"result JSON", a.json, b.json},
				{"content hash", []byte(a.hash), []byte(b.hash)},
			} {
				if !bytes.Equal(c.a, c.b) {
					t.Errorf("%s differs between two concurrent runs (%d vs %d bytes)", c.what, len(c.a), len(c.b))
				}
			}
		})
	}
}
