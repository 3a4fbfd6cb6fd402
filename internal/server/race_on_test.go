//go:build race

package server_test

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what is put and whose instrumentation allocates, so allocation
// figures mean nothing there.
const raceEnabled = true
