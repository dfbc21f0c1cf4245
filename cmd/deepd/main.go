// Command deepd is the simulation-as-a-service daemon: the deep SDK
// behind an HTTP/JSON API with a bounded worker pool, per-job
// cancellation and deadlines, and a content-addressed result cache —
// identical experiment requests from many clients are served from
// cache instead of re-simulated.
//
//	deepd -addr localhost:8080
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
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrently running jobs (0: GOMAXPROCS)")
		queue        = flag.Int("queue", 256, "admission queue depth")
		cacheMB      = flag.Int64("cache-mb", 256, "result cache byte budget in MiB (-1: unbounded)")
		cacheEntries = flag.Int("cache-entries", 4096, "result cache entry budget (-1: unbounded)")
		deadline     = flag.Duration("deadline", 10*time.Minute, "default per-job wall-clock deadline")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		storeDir     = flag.String("store", "", "persist results to an append-only store in this directory (empty: memory only)")
		domains      = flag.Int("domains", 0, "default parallel-kernel domain count for specs that set none (0: sequential); part of the content address of experiment and traffic jobs, ignored by MPI, cholesky and jobs workloads")
	)
	flag.Parse()

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
			fmt.Fprintf(os.Stderr, "deepd: opening store: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		epoch, err := st.AdvanceEpoch()
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepd: advancing store epoch: %v\n", err)
			os.Exit(1)
		}
		s := st.Stats()
		log.Printf("deepd: store %s: %d entries, %d segments, %.0f%% live, epoch %d",
			*storeDir, s.Entries, s.Segments, 100*s.LiveRatio, epoch)
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
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("deepd: serving on http://%s (workers=%d, queue=%d)", *addr, *workers, *queue)

	select {
	case <-ctx.Done():
		log.Printf("deepd: draining (budget %v)", *drainTimeout)
		if srv.Drain(*drainTimeout) {
			log.Printf("deepd: drained cleanly")
		} else {
			log.Printf("deepd: drain timed out; in-flight jobs cancelled")
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("deepd: shutdown: %v", err)
		}
		<-errCh // ListenAndServe has returned
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "deepd: %v\n", err)
			os.Exit(1)
		}
	}
}
