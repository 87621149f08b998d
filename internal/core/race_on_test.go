//go:build race

package core

// raceEnabled reports that the race detector is on: it allocates on its
// own account, so exact allocation ceilings are asserted only without it.
const raceEnabled = true
