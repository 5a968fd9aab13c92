// Package lintdirective exercises the directive hygiene check: misspelled
// directives exempt nothing and are reported, and a directive with no
// written reason is itself a diagnostic.
package lintdirective

import "math/rand"

// Typo carries a misspelled directive: it exempts nothing, so both the
// typo and the draw it meant to cover are reported.
func Typo() int {
	//lint:rand-exmept the misspelling means this exempts nothing
	return rand.Intn(10)
}

// NoReason carries a directive with no written reason: the missing reason
// is a non-exemptible diagnostic, so the suite still fails.
func NoReason() float64 {
	//lint:rand-exempt
	return rand.Float64()
}
