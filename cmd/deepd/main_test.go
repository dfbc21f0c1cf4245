package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// syncBuffer is a stderr a daemon goroutine writes while the test
// reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingRE = regexp.MustCompile(`serving on (http://127\.0\.0\.1:[1-9][0-9]*) `)

// daemon is one deepd running in the background on a free port.
type daemon struct {
	t      *testing.T
	base   string
	stderr *syncBuffer
	cancel context.CancelFunc
	code   chan int
}

// boot starts run with args and waits until the log names the bound
// address.
func boot(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{t: t, stderr: &syncBuffer{}, cancel: cancel, code: make(chan int, 1)}
	go func() { d.code <- run(ctx, args, d.stderr) }()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		select {
		case code := <-d.code:
			cancel()
			t.Fatalf("deepd exited %d before serving; stderr:\n%s", code, d.stderr)
		default:
		}
		if m := servingRE.FindStringSubmatch(d.stderr.String()); m != nil {
			d.base = m[1]
			return d
		}
	}
	cancel()
	t.Fatalf("deepd never logged its address; stderr:\n%s", d.stderr)
	return nil
}

// stop cancels the daemon's context (what SIGTERM does in main) and
// returns its exit code.
func (d *daemon) stop() int {
	d.cancel()
	select {
	case code := <-d.code:
		return code
	case <-time.After(30 * time.Second):
		d.t.Fatal("deepd did not drain")
		return -1
	}
}

func (d *daemon) get(path string) []byte {
	d.t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		d.t.Fatalf("GET %s: %d %v: %s", path, resp.StatusCode, err, body)
	}
	return body
}

// submit posts a spec and polls the job to a terminal state.
func (d *daemon) submit(spec string) serve.SubmitResponse {
	d.t.Helper()
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub serve.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || resp.StatusCode != http.StatusAccepted {
		d.t.Fatalf("submit %s: %d %v", spec, resp.StatusCode, err)
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var st serve.JobStatus
		if err := json.Unmarshal(d.get("/v1/jobs/"+sub.ID), &st); err != nil {
			d.t.Fatal(err)
		}
		if st.State == serve.StateDone {
			return sub
		}
		if st.State == serve.StateFailed || st.State == serve.StateCancelled {
			d.t.Fatalf("job %s %s: %s", sub.ID, st.State, st.Error)
		}
	}
	d.t.Fatalf("job %s did not finish", sub.ID)
	return sub
}

// TestRun drives the daemon the way a shell would: usage and startup
// errors exit non-zero with a diagnostic, a daemon on port 0 logs the
// port it bound, serves E01 byte-identical to the golden file and
// drains cleanly on cancellation, and a store-backed daemon answers a
// restart's resubmission from disk.
func TestRun(t *testing.T) {
	golden, err := os.ReadFile("../../deep/testdata/E01.golden")
	if err != nil {
		t.Fatal(err)
	}
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(t.TempDir(), "results")

	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // substring
		// use, when set, runs against the booted daemon before it is
		// stopped; cases without it must exit on their own.
		use func(t *testing.T, d *daemon)
	}{
		{"unknown flag", []string{"-nosuchflag"}, 2, "flag provided but not defined: -nosuchflag", nil},
		{"bad duration", []string{"-deadline", "soon"}, 2, "invalid value", nil},
		{"unlistenable address", []string{"-addr", "127.0.0.1:-1"}, 1, "deepd: listen tcp", nil},
		{"unopenable store", []string{"-addr", "127.0.0.1:0", "-store", notADir}, 1, "deepd: opening store", nil},
		{"serve on a free port", []string{"-addr", "127.0.0.1:0", "-workers", "1"}, 0, "drained cleanly",
			func(t *testing.T, d *daemon) {
				sub := d.submit(`{"experiment": "E01"}`)
				if sub.CacheHit {
					t.Fatal("first submission was a cache hit")
				}
				if text := d.get("/v1/jobs/" + sub.ID + "/text"); !bytes.Equal(text, golden) {
					t.Fatalf("/text differs from E01.golden:\n%s", text)
				}
				if again := d.submit(`{"experiment": "E01"}`); !again.CacheHit {
					t.Fatal("identical resubmission missed the cache")
				}
			}},
		{"store first boot", []string{"-addr", "127.0.0.1:0", "-store", storeDir, "-cache-mb", "-1", "-deadline", "1m"}, 0, "0 entries",
			func(t *testing.T, d *daemon) { d.submit(`{"experiment": "E01"}`) }},
		{"store warm boot", []string{"-addr", "127.0.0.1:0", "-store", storeDir}, 0, "1 entries",
			func(t *testing.T, d *daemon) {
				sub := d.submit(`{"experiment": "E01"}`)
				if !sub.CacheHit {
					t.Fatal("restarted daemon re-simulated a stored run")
				}
				if text := d.get("/v1/jobs/" + sub.ID + "/text"); !bytes.Equal(text, golden) {
					t.Fatalf("stored /text differs from E01.golden:\n%s", text)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var code int
			var stderr string
			if c.use == nil {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				var buf syncBuffer
				code, stderr = run(ctx, c.args, &buf), buf.String()
			} else {
				d := boot(t, c.args...)
				c.use(t, d)
				code, stderr = d.stop(), d.stderr.String()
			}
			if code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr)
			}
			if !strings.Contains(stderr, c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, stderr)
			}
		})
	}
}
