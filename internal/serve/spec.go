package serve

import (
	"errors"
	"net/http"

	"repro/deep"
)

// JobSpec is the wire form of one simulation request: the SDK's run
// description, decoded from the submit body, normalised and
// content-addressed by deep.Spec's own methods.
type JobSpec = deep.Spec

// invalidf is shorthand for a 400 validation error.
func invalidf(format string, args ...any) *Error {
	return errf(ErrInvalidRequest, http.StatusBadRequest, format, args...)
}

// normalize canonicalises a decoded spec and returns its content key.
// Normalize errors map onto API codes: the two unknown-name sentinels
// keep their own codes, every other error is an invalid request.
func normalize(spec *JobSpec) (string, error) {
	if err := spec.Normalize(); err != nil {
		switch {
		case errors.Is(err, deep.ErrUnknownExperiment):
			return "", errf(ErrUnknownExperiment, http.StatusBadRequest,
				"%v (GET /v1/experiments lists the registry)", err)
		case errors.Is(err, deep.ErrUnknownWorkload):
			return "", errf(ErrUnknownWorkload, http.StatusBadRequest, "%v", err)
		}
		return "", invalidf("%v", err)
	}
	return spec.Key()
}
