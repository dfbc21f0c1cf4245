package offload

import (
	"errors"
	"fmt"

	"repro/internal/mpi"
)

// Reverse offload: booster kernels occasionally need Cluster-side
// services — file systems, licence checks, anything that lives with
// main(). DEEP supports calling back across the inter-communicator
// while the kernel runs; here the invoking cluster rank doubles as the
// service host for the duration of Invoke.

// Service is a cluster-side function callable from booster kernels.
type Service func(args []float64) ([]float64, error)

// Env gives a kernel its group position and the reverse-call channel
// to the invoking cluster rank.
type Env struct {
	Rank, Size int
	call       func(service string, args []float64) ([]float64, error)
}

// CallCluster invokes the named cluster-side service and blocks for
// its result. Any worker rank may call concurrently.
func (e *Env) CallCluster(service string, args []float64) ([]float64, error) {
	return e.call(service, args)
}

// Reverse-offload message types carried on the inter-communicator.
const (
	tagReverse     mpi.Tag = 1004
	tagReverseResp mpi.Tag = 1005
)

type reverseReq struct {
	service string
	args    []float64
}

type reverseResp struct {
	data []float64
	err  string
}

// ErrNoService is wrapped into failures of unknown reverse services.
var ErrNoService = errors.New("offload: unknown reverse service")

// handleReverse services one reverse request on the cluster side.
func handleReverse(inter *mpi.Comm, services map[string]Service, src int, v any) {
	rr := mpi.Unwrap(v).(reverseReq)
	resp := reverseResp{}
	if svc, ok := services[rr.service]; ok {
		out, err := svc(rr.args)
		if err != nil {
			resp.err = err.Error()
		} else {
			resp.data = out
		}
	} else {
		resp.err = fmt.Sprintf("%v: %q", ErrNoService, rr.service)
	}
	inter.Send(src, tagReverseResp, mpi.Sized{
		Data: resp, Bytes: 8*len(resp.data) + 16,
	})
}

// newEnv builds the worker-side environment whose CallCluster routes
// through the parent inter-communicator to the invoking rank 0.
func newEnv(w *mpi.Comm) *Env {
	parent := w.Parent()
	return &Env{
		Rank: w.Rank(),
		Size: w.Size(),
		call: func(service string, args []float64) ([]float64, error) {
			parent.Send(0, tagReverse, mpi.Sized{
				Data:  reverseReq{service: service, args: args},
				Bytes: 8*len(args) + len(service) + 16,
			})
			v, _ := parent.Recv(0, tagReverseResp)
			resp := mpi.Unwrap(v).(reverseResp)
			if resp.err != "" {
				return nil, errors.New(resp.err)
			}
			return resp.data, nil
		},
	}
}
