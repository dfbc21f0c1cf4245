// Package repro is a from-scratch Go reproduction of "The DEEP
// Project: Pursuing Cluster-Computing in the Many-Core Era" (Eicker,
// Lippert, Suarez, Moschny; HUCAA/ICPP 2013): the Cluster-Booster
// architecture, its Global-MPI and OmpSs software stack, and the
// hardware substrates (InfiniBand fat tree, EXTOLL 3D torus with
// VELO/RMA/SMFU engines, PCIe baseline, Xeon/Xeon Phi node models)
// they run on — all simulated, since the original system is hardware.
//
// The public entry point is the deep package: deep.NewMachine builds
// a modelled system from functional options, deep.Workload unifies
// the applications, kernel offloading and booster job scheduling
// behind one Run(ctx, *Env) (*Result, error) contract with built-in
// verification, and deep.Runner drives the experiment registry (every
// table/figure of the paper reproduction) concurrently with pluggable
// table/CSV/JSON sinks. The cmd/deepbench and cmd/deeprun binaries
// are thin shells over it.
//
// See README.md for the architecture overview, the old-internal-API
// to-deep migration table, and the system inventory; EXPERIMENTS.md
// records paper-vs-measured for every registry entry. The benchmarks
// in deep/bench_test.go regenerate every figure via the internal/expt
// registry the deep.Runner fronts, at selectable fabric fidelity
// (default | packet | flow — see the deep package docs).
package repro
