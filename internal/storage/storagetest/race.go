//go:build race

package storagetest

// RaceEnabled reports a -race build. The race detector's instrumentation
// allocates, so allocation tests skip when it is set.
const RaceEnabled = true
