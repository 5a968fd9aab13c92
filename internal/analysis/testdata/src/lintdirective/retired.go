package lintdirective

// Directives of analyzers and markers that no longer exist: each is an
// unknown directive, reported wherever it still appears.

//lint:enum job-state every dispatch over job states must cover all six
const (
	Queued = "queued"
	Done   = "done"
)

// Spawn carries retired exemptions on the statements they once covered.
func Spawn(done chan struct{}, state string) {
	//lint:goroutinehygiene-exempt done is closed by the caller
	go func() { <-done }()
	//lint:regexhaustive-exempt queued states never reach this switch
	switch state {
	case Done:
	}
	m := map[string]int{}
	//lint:detmap-exempt nothing is emitted
	for range m {
	}
}

// Scale carries the exemptions of the retired float-mediation and
// artifact-timestamp analyzers.
func Scale(x float64) float64 {
	//lint:fpu-exempt the doubling is reliable control arithmetic
	x *= 2
	//lint:artifact-time-exempt the value never reaches an artifact
	return x
}
