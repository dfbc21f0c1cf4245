// Command deepd is the simulation-as-a-service daemon: the deep SDK
// behind an HTTP/JSON API with a bounded worker pool, per-job
// cancellation and deadlines, and a content-addressed result cache —
// identical experiment requests from many clients are served from
// cache instead of re-simulated.
//
//	deepd -addr localhost:8080
//	deepd -addr 127.0.0.1:0        # any free port; the log names it
//	curl -s -X POST localhost:8080/v1/jobs -d '{"experiment": "E01"}'
//	curl -s localhost:8080/v1/jobs/j-000001
//	curl -s localhost:8080/v1/jobs/j-000001/result
//
// The API surface:
//
//	POST /v1/jobs                  submit a spec, get a job id
//	GET  /v1/jobs                  list retained jobs
//	GET  /v1/jobs/{id}             job status (incl. cache_hit)
//	GET  /v1/jobs/{id}/events      SSE progress stream
//	POST /v1/jobs/{id}/cancel      cancel a queued or running job
//	GET  /v1/jobs/{id}/result      structured JSON result
//	GET  /v1/jobs/{id}/text        rendered text form
//	GET  /v1/jobs/{id}/trace       Chrome trace attachment
//	GET  /v1/jobs/{id}/metrics     metrics-CSV attachment
//	GET  /v1/experiments           the experiment registry
//	GET  /v1/stats                 pool + cache counters
//	GET  /v1/healthz               liveness
//
// SIGTERM/SIGINT starts a graceful drain: no new jobs are admitted,
// in-flight jobs get -drain-timeout to finish, stragglers are
// cancelled, then the listener shuts down.
//
// With -store DIR the cache is persistent: finished results are
// written through to an append-only store in DIR, the cache
// warm-starts from it on boot, and LRU misses fall back to disk — a
// restarted daemon answers repeat traffic without re-simulating. Each
// boot advances the store epoch, so `deepstore prune` can age out
// configs untouched for N daemon generations.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// run is the testable body of main: parses args (without the program
// name), serves until ctx is cancelled, drains, and returns the process
// exit code — 2 for a flag-parsing error, 1 for any other failure.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("deepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "localhost:8080", "listen address (port 0: any free port, named in the log)")
		workers      = fs.Int("workers", 0, "concurrently running jobs (0: GOMAXPROCS)")
		queue        = fs.Int("queue", 256, "admission queue depth")
		cacheMB      = fs.Int64("cache-mb", 256, "result cache byte budget in MiB (-1: unbounded)")
		cacheEntries = fs.Int("cache-entries", 4096, "result cache entry budget (-1: unbounded)")
		deadline     = fs.Duration("deadline", 10*time.Minute, "default per-job wall-clock deadline")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		storeDir     = fs.String("store", "", "persist results to an append-only store in this directory (empty: memory only)")
		domains      = fs.Int("domains", 0, "default parallel-kernel domain count for specs that set none (0: sequential); part of the content address of experiment and traffic jobs, ignored by MPI, cholesky and jobs workloads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "deepd: "+format+"\n", a...)
		return 1
	}

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	cacheBytes := *cacheMB
	if cacheBytes > 0 {
		cacheBytes <<= 20
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, store.Options{}); err != nil {
			return fail("opening store: %v", err)
		}
		defer st.Close()
		epoch, err := st.AdvanceEpoch()
		if err != nil {
			return fail("advancing store epoch: %v", err)
		}
		s := st.Stats()
		logger.Printf("deepd: store %s: %d entries, %d segments, %.0f%% live, epoch %d",
			*storeDir, s.Entries, s.Segments, 100*s.LiveRatio, epoch)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("%v", err)
	}
	srv := serve.New(serve.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheBytes:      cacheBytes,
		CacheEntries:    *cacheEntries,
		DefaultDeadline: *deadline,
		DefaultDomains:  *domains,
		Store:           st,
	})
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Printf("deepd: serving on http://%s (workers=%d, queue=%d)", ln.Addr(), *workers, *queue)

	select {
	case <-ctx.Done():
		logger.Printf("deepd: draining (budget %v)", *drainTimeout)
		if srv.Drain(*drainTimeout) {
			logger.Printf("deepd: drained cleanly")
		} else {
			logger.Printf("deepd: drain timed out; in-flight jobs cancelled")
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("deepd: shutdown: %v", err)
		}
		<-errCh // Serve has returned
		return 0
	case err := <-errCh:
		srv.Drain(*drainTimeout)
		return fail("%v", err)
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr))
}
