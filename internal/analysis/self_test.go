package analysis

import "testing"

// TestSelfApplication runs the full robustlint suite over the module and
// fails on any surviving diagnostic. This is the enforcement point: a new
// violation anywhere in the tree — or an exemption that loses its written
// reason — fails `go test ./...` without any extra CI wiring.
func TestSelfApplication(t *testing.T) {
	diags, err := RunWithExempted("../..", All(), "./...")
	if err != nil {
		t.Fatalf("robustlint self-run: %v", err)
	}
	diags = dropExempted(diags)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the finding or add a //lint:<directive> <written reason>; see internal/analysis doc")
	}
}
