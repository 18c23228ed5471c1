//go:build !race

package mmu

const raceEnabled = false
