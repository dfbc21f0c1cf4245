package deep

import (
	"context"
	"errors"
	"math/bits"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestRunVerifiedJoinsReference: the sequential reference runs beside
// the ranks; whatever makes runVerified return early, it must not
// return while the reference is still running, nor leave a goroutine
// behind.
func TestRunVerifiedJoinsReference(t *testing.T) {
	rankFails := func(c *mpi.Comm) ([]float64, error) {
		if c.Rank() == 1 {
			return nil, errors.New("rank 1 gives up")
		}
		return []float64{0}, nil
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		started bool // the reference is expected to have been started
	}{
		{"rank error", context.Background(), true},
		{"context already cancelled", cancelled, false},
	} {
		m, err := NewMachine(WithClusterNodes(4), WithClusterRanks(4))
		if err != nil {
			t.Fatal(err)
		}
		var started, finished atomic.Bool
		reference := func() []float64 {
			started.Store(true)
			time.Sleep(30 * time.Millisecond) // long after the ranks have failed
			finished.Store(true)
			return make([]float64, 4)
		}
		before := runtime.NumGoroutine()
		err = runVerified(tc.ctx, m.NewEnv(), &Result{Workload: "test"}, reference, 1e-9, rankFails)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if started.Load() != tc.started || finished.Load() != tc.started {
			t.Errorf("%s: reference started=%v finished=%v at return, want both %v",
				tc.name, started.Load(), finished.Load(), tc.started)
		}
		// Rank goroutines have signalled their WaitGroup but may not
		// have left the scheduler's count yet.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines before, %d after", tc.name, before, after)
		}
	}
}

// TestReferencePanicIsAnError: a reference that panics fails the run
// with an error instead of crashing the process, whether or not the
// ranks fail as well.
func TestReferencePanicIsAnError(t *testing.T) {
	m, err := NewMachine(WithClusterNodes(4), WithClusterRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	ranksDone := func(c *mpi.Comm) ([]float64, error) { return []float64{0}, nil }
	reference := func() []float64 { panic("reference gives up") }
	err = runVerified(context.Background(), m.NewEnv(), &Result{Workload: "test"}, reference, 1e-9, ranksDone)
	if err == nil || !strings.Contains(err.Error(), "reference panicked: reference gives up") {
		t.Errorf("panicking reference: error %v", err)
	}
	// A grid whose cell count wraps an int: Normalize refuses it, but
	// Run takes the workload as given.
	n := 1 << (bits.UintSize / 2)
	if _, err := Run(context.Background(), m.NewEnv(), Stencil{NX: n, NY: n, Iters: 1}); err == nil {
		t.Errorf("stencil %dx%d: no error", n, n)
	}
}
