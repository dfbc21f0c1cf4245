//go:build race

package expt

// raceEnabled reports whether the race detector is compiled in; its
// shadow allocations void host-memory budgets.
const raceEnabled = true
