package mpc

// SetExhaustive turns branch-and-bound pruning off (on = true) or back
// on, so tests can compare the pruned controller with one that plays
// every candidate to the horizon. Not safe while a run is in flight.
func SetExhaustive(on bool) { exhaustive = on }
