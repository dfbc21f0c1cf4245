// Package serve is the simulation-as-a-service layer of the
// reproduction: an HTTP/JSON API over the public deep SDK, following
// the service-over-fast-core layering the roadmap names (a long-lived
// daemon with clean API boundaries over a deterministic execution
// core).
//
// The shape:
//
//   - JobSpec — deep.Spec, the wire form of one simulation request: a
//     registered experiment or a custom Machine/Workload configuration
//     plus the cross-cutting run knobs (seed, scale, fidelity, energy,
//     obs flags). Specs normalise to a canonical form and are
//     content-addressed by deep.Spec's Normalize and Key.
//   - Cache — an LRU, byte-budgeted result cache keyed by spec hash.
//     Because simulations are deterministic for a fixed spec, an
//     identical resubmission is served from cache byte-identically,
//     without re-running the simulation.
//   - Pool — a bounded worker pool over deep.Spec.Run, the SDK's one
//     run path, with per-job cancellation, deadlines and graceful
//     drain.
//   - Server — the HTTP surface: submit, status, SSE progress events,
//     cancel, structured result plus Chrome-trace / metrics-CSV
//     attachments, registry listing, and cache/pool statistics.
//
// cmd/deepd wires a Server to a net/http listener and SIGTERM drain.
package serve

import (
	"errors"
	"fmt"
	"net/http"
)

// ErrorCode classifies API failures; codes are stable wire contract.
type ErrorCode string

// The error codes the API returns.
const (
	// ErrInvalidRequest: the request body or parameters failed
	// validation (malformed JSON, unknown fields, bad values).
	ErrInvalidRequest ErrorCode = "invalid_request"
	// ErrUnknownExperiment: the spec names an experiment that is not
	// in the registry.
	ErrUnknownExperiment ErrorCode = "unknown_experiment"
	// ErrUnknownWorkload: the spec names a workload kind the service
	// cannot build.
	ErrUnknownWorkload ErrorCode = "unknown_workload"
	// ErrNotFound: no job with the requested id.
	ErrNotFound ErrorCode = "not_found"
	// ErrNotFinished: the requested artifact exists only once the job
	// reaches a terminal state.
	ErrNotFinished ErrorCode = "not_finished"
	// ErrNoArtifact: the job finished but did not record the requested
	// attachment (e.g. a trace without the trace flag).
	ErrNoArtifact ErrorCode = "no_artifact"
	// ErrJobFailed: the job reached a terminal failure state, so the
	// requested result does not exist.
	ErrJobFailed ErrorCode = "job_failed"
	// ErrQueueFull: the admission queue is at capacity; retry later.
	ErrQueueFull ErrorCode = "queue_full"
	// ErrDraining: the daemon is shutting down and admits no new jobs.
	ErrDraining ErrorCode = "draining"
	// ErrInternal: an unexpected server-side failure.
	ErrInternal ErrorCode = "internal"
)

// Error is the typed API error; it marshals as the JSON error body
// every non-2xx response carries.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	status  int
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Status returns the HTTP status the error maps to.
func (e *Error) Status() int {
	if e.status == 0 {
		return http.StatusInternalServerError
	}
	return e.status
}

// errf builds a typed error.
func errf(code ErrorCode, status int, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...), status: status}
}

// asError coerces any error into a typed one (unexpected errors map
// to ErrInternal).
func asError(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	return errf(ErrInternal, http.StatusInternalServerError, "%v", err)
}
