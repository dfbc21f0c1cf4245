package mpi

import "fmt"

// Sized wraps an arbitrary payload with an explicit modelled byte
// count, for application-level messages whose in-memory representation
// differs from their wire size.
type Sized struct {
	Data  any
	Bytes int
}

// PayloadBytes returns the modelled wire size of a payload. Slices of
// numeric types count element size times length; Sized payloads use
// their explicit count; nil counts zero (a pure synchronisation
// message). Unknown types panic: silent mis-sizing would corrupt every
// modelled time downstream.
func PayloadBytes(v any) int {
	switch d := v.(type) {
	case nil:
		return 0
	case Sized:
		return d.Bytes
	case []byte:
		return len(d)
	case []float64:
		return 8 * len(d)
	case []float32:
		return 4 * len(d)
	case []int:
		return 8 * len(d)
	case []int32:
		return 4 * len(d)
	case []int64:
		return 8 * len(d)
	case string:
		return len(d)
	case float64, int, int64, uint64:
		return 8
	case float32, int32, uint32:
		return 4
	case bool, int8, uint8:
		return 1
	default:
		panic(fmt.Sprintf("mpi: cannot size payload of type %T; wrap it in mpi.Sized", v))
	}
}

// clonePayload deep-copies slice payloads so that, as in MPI, the
// sender may reuse its buffer as soon as Send returns ([]float64 never
// gets here: post copies it into a mailbox buffer). Non-slice payloads
// and Sized wrappers of unknown types are passed through; Sized
// payloads must therefore not be mutated after sending.
func clonePayload(v any) any {
	switch d := v.(type) {
	case []byte:
		return append([]byte(nil), d...)
	case []float32:
		return append([]float32(nil), d...)
	case []int:
		return append([]int(nil), d...)
	case []int32:
		return append([]int32(nil), d...)
	case []int64:
		return append([]int64(nil), d...)
	default:
		return v
	}
}

// Unwrap returns the inner payload if v is Sized, else v itself.
func Unwrap(v any) any {
	if s, ok := v.(Sized); ok {
		return s.Data
	}
	return v
}

// AsFloat64s asserts that a payload is a []float64 (possibly wrapped in
// Sized), for reduction operands.
func AsFloat64s(v any) []float64 {
	f, ok := Unwrap(v).([]float64)
	if !ok {
		panic(fmt.Sprintf("mpi: expected []float64 payload, got %T", v))
	}
	return f
}
