package serve

import (
	"context"

	"repro/deep"
)

// Entry is one cached job outcome: deep.Spec.Run's encoded output,
// kept exactly as first produced, so a cache hit or a store replay is
// byte-identical to the fresh computation.
type Entry = deep.Output

// execute runs a normalized spec to completion; it is the Server's
// exec in production. progress receives one label per simulation run
// the job opens (experiment sweep points).
func execute(ctx context.Context, spec *JobSpec, progress func(string)) (*Entry, error) {
	return spec.Run(ctx, progress)
}
