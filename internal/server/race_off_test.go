//go:build !race

package server_test

// raceEnabled reports a -race build. See race_on_test.go.
const raceEnabled = false
