//go:build race

package mmu

// raceEnabled is set when the race detector instruments the build.
// Under it, slices.Grow allocates the slice it appends as well as the
// grown one, so allocation counts and heap budgets read high.
const raceEnabled = true
