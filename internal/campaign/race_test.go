//go:build race

package campaign

// raceEnabled reports a -race build, where sync.Pool drops a quarter of
// the items put back, so allocation pins cannot hold.
const raceEnabled = true
