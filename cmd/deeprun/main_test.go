package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// TestRunVerifiedWorkloadExitsZero: the happy path prints VERIFIED
// and exits 0.
func TestRunVerifiedWorkloadExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-app", "spmv"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "VERIFIED") {
		t.Fatalf("stdout lacks VERIFIED:\n%s", out.String())
	}
}

// TestRunFailedVerificationExitsNonZero is the regression test for
// the exit-status contract: a run whose numerical verification fails
// must exit non-zero, not merely print FAILED. The impossible
// tolerance (-tol -1) makes the failure deterministic.
func TestRunFailedVerificationExitsNonZero(t *testing.T) {
	for _, app := range []string{"spmv", "cholesky", "stencil", "nbody"} {
		t.Run(app, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run(context.Background(), []string{"-app", app, "-tol", "-1"}, &out, &errOut)
			if code == 0 {
				t.Fatalf("failed verification exited 0; stdout:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "FAILED") {
				t.Fatalf("stdout lacks FAILED:\n%s", out.String())
			}
		})
	}
}

// TestRunBadFlagsExitNonZero: usage errors fail fast with a message.
func TestRunBadFlagsExitNonZero(t *testing.T) {
	cases := [][]string{
		{"-app", "fft"},
		{"-fidelity", "exact"},
		{"-ranks", "0"},
		{"-seed", "0"},
		{"-app", "jobs", "-boosters", "0"},
		{"-app", "traffic", "-nx", "4611686018427387905", "-ny", "4", "-nz", "1"},
		{"-nosuchflag"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, &out, &errOut); code == 0 {
			t.Errorf("%v exited 0", args)
		} else if errOut.Len() == 0 {
			t.Errorf("%v produced no diagnostic", args)
		}
	}
}

// TestRunCancelledContextExitsNonZero: an interrupted run reports the
// cancellation instead of a result.
func TestRunCancelledContextExitsNonZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut strings.Builder
	if code := run(ctx, []string{"-app", "spmv"}, &out, &errOut); code == 0 {
		t.Fatalf("cancelled run exited 0; stdout:\n%s", out.String())
	}
}

// TestRunStoreReplay: a stored run replays byte-identically without
// simulating, and the replay keeps the exit-status contract for both
// verified and failed runs.
func TestRunStoreReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")

	var fresh, errOut strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-store", dir}, &fresh, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	var replay, replayErr strings.Builder
	code := run(context.Background(), []string{"-app", "spmv", "-store", dir, "-resume"}, &replay, &replayErr)
	if code != 0 {
		t.Fatalf("replay exit %d, stderr:\n%s", code, replayErr.String())
	}
	if replay.String() != fresh.String() {
		t.Fatalf("replay is not byte-identical:\n--- fresh ---\n%s--- replay ---\n%s", fresh.String(), replay.String())
	}
	if !strings.Contains(replayErr.String(), "replayed stored run") {
		t.Fatalf("replay did not announce itself:\n%s", replayErr.String())
	}

	// A different point is a miss: -resume simulates (and stores) it.
	var other, otherErr strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-ranks", "8", "-store", dir, "-resume"}, &other, &otherErr); code != 0 {
		t.Fatalf("miss exit %d, stderr:\n%s", code, otherErr.String())
	}
	if strings.Contains(otherErr.String(), "replayed stored run") {
		t.Fatal("different knobs replayed the wrong stored run")
	}

	// A stored failed verification replays as exit 1.
	var bad strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-tol", "-1", "-store", dir}, &bad, &errOut); code != 1 {
		t.Fatalf("failed verification exit %d", code)
	}
	var badReplay, badReplayErr strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-tol", "-1", "-store", dir, "-resume"}, &badReplay, &badReplayErr); code != 1 {
		t.Fatalf("failed-verification replay exit %d", code)
	}
	if !strings.Contains(badReplayErr.String(), "replayed stored run") || badReplay.String() != bad.String() {
		t.Fatal("failed-verification replay did not serve the stored bytes")
	}
}

// TestRunAgreesWithDeepd: deeprun normalises its flags into the spec
// deepd would normalise, so the two give one answer. A jobs run drops
// -domains as a jobs spec does, so faults under -domains run, and
// -domains never splits an spmv store key.
func TestRunAgreesWithDeepd(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-app", "jobs", "-jobs", "8", "-mtbf", "120", "-domains", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("jobs with faults under -domains 2: exit %d, stderr:\n%s", code, errOut.String())
	}

	dir := filepath.Join(t.TempDir(), "results")
	var fresh, freshErr strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-store", dir}, &fresh, &freshErr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, freshErr.String())
	}
	var replay, replayErr strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-domains", "4", "-store", dir, "-resume"}, &replay, &replayErr); code != 0 {
		t.Fatalf("replay exit %d, stderr:\n%s", code, replayErr.String())
	}
	if !strings.Contains(replayErr.String(), "replayed stored run") || replay.String() != fresh.String() {
		t.Fatalf("-domains 4 did not replay the stored spmv run; stderr:\n%s", replayErr.String())
	}
}

// TestRunStoreFlagValidation: -resume needs -store, and -store refuses
// the observability exports it cannot persist.
func TestRunStoreFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-app", "spmv", "-resume"},
		{"-app", "spmv", "-store", "x", "-trace", "t.json"},
		{"-app", "spmv", "-store", "x", "-metrics", "m.csv"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, &out, &errOut); code == 0 {
			t.Errorf("%v exited 0", args)
		} else if errOut.Len() == 0 {
			t.Errorf("%v produced no diagnostic", args)
		}
	}
}

// TestRunWritesArtifacts: -trace and -metrics produce the files.
func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	metricsPath := filepath.Join(dir, "m.csv")
	var out, errOut strings.Builder
	code := run(context.Background(), []string{
		"-app", "jobs", "-jobs", "8",
		"-trace", tracePath, "-metrics", metricsPath,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	for _, p := range []string{tracePath, metricsPath} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestRunRefusesUnsampledMetrics: -metrics with a sampling interval
// that samples nothing is refused before the run, and leaves no empty
// export behind.
func TestRunRefusesUnsampledMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.csv")
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-app", "jobs", "-metrics", path, "-sample", "0"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-metrics needs a positive -sample") {
		t.Errorf("stderr does not name the bad -sample:\n%s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("refused run printed a result:\n%s", out.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("refused export left %s behind (%v)", path, err)
	}
}

// TestRunSharesDeepdRecords: deeprun stores deepd's record of its spec,
// so a daemon over the same store answers the equivalent deepd spec
// from it, byte-identical to deeprun's output, and deeprun -resume
// replays a record the daemon computed.
func TestRunSharesDeepdRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	var fresh, freshErr strings.Builder
	if code := run(context.Background(), []string{"-app", "spmv", "-store", dir}, &fresh, &freshErr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, freshErr.String())
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{Workers: 1, Store: st})
	ts := httptest.NewServer(srv.Handler())
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v: %s", path, resp.StatusCode, err, body)
		}
		return body
	}
	submit := func(spec string) serve.SubmitResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sub serve.SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d %v", spec, resp.StatusCode, err)
		}
		for deadline := time.Now().Add(30 * time.Second); sub.State == serve.StateQueued || sub.State == serve.StateRunning; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish", sub.ID)
			}
			if err := json.Unmarshal(get("/v1/jobs/"+sub.ID), &sub.JobStatus); err != nil {
				t.Fatal(err)
			}
		}
		if sub.State != serve.StateDone {
			t.Fatalf("job %s %s: %s", sub.ID, sub.State, sub.Error)
		}
		return sub
	}

	const machine = `"machine":{"cluster_nodes":4,"booster_nodes":4,"cluster_ranks":4},"seed":42`
	hit := submit(`{"workload":{"kind":"spmv"},` + machine + `}`)
	if !hit.CacheHit {
		t.Fatal("deepd re-simulated the spmv run deeprun stored")
	}
	if text := get("/v1/jobs/" + hit.ID + "/text"); string(text) != fresh.String() {
		t.Fatalf("deepd /text differs from deeprun's output:\n--- deeprun ---\n%s--- deepd ---\n%s", fresh.String(), text)
	}
	computed := submit(`{"workload":{"kind":"nbody"},` + machine + `}`)
	if computed.CacheHit {
		t.Fatal("nbody was answered before anything computed it")
	}
	daemonText := get("/v1/jobs/" + computed.ID + "/text")
	ts.Close()
	srv.Drain(5 * time.Second)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var replay, replayErr strings.Builder
	if code := run(context.Background(), []string{"-app", "nbody", "-store", dir, "-resume"}, &replay, &replayErr); code != 0 {
		t.Fatalf("replay exit %d, stderr:\n%s", code, replayErr.String())
	}
	if !strings.Contains(replayErr.String(), "replayed stored run") || replay.String() != string(daemonText) {
		t.Fatalf("deeprun did not replay deepd's nbody record; stderr:\n%s", replayErr.String())
	}
}
