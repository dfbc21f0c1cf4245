package deep_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/deep"
)

// TestGoldenOutputs protects the "no output drift" guarantee: the
// tables a default-configuration Runner produces for a fast subset of
// experiments must stay byte-identical to the checked-in golden files
// (captured from cmd/deepbench on the pre-SDK main branch; E09 and E10
// since packet links book by reservation, which grants same-instant
// requests in booking order). Refresh a golden intentionally with:
//
//	go run ./cmd/deepbench -run E01 > deep/testdata/E01.golden
func TestGoldenOutputs(t *testing.T) {
	for _, id := range []string{"E01", "E04", "E09", "E10", "E12", "E13", "E14", "E15", "E16"} {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := (&deep.Runner{}).Run(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := (deep.TableSink{}).Write(&got, rep); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s",
					id, got.Bytes(), want)
			}
		})
	}
}

// TestGoldenSubsetMatchesBatchedRun guards the deepbench framing: a
// multi-experiment run is the per-experiment outputs joined by single
// blank lines.
func TestGoldenSubsetMatchesBatchedRun(t *testing.T) {
	rep, err := (&deep.Runner{Parallel: 3}).Run(context.Background(), "E01", "E04", "E12")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := (deep.TableSink{}).Write(&got, rep); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i, id := range []string{"E01", "E04", "E12"} {
		if i > 0 {
			want.WriteByte('\n')
		}
		g, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(g)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("batched parallel run does not match concatenated golden files")
	}
}
