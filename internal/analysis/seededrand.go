package analysis

import (
	"go/ast"
	"strings"
)

// SeededRand forbids ambient randomness in production code. Every random
// draw in this repo — fault placement, problem generation, trial seeds —
// must be attributable to an explicit seed so that campaigns, tune
// traces, and distributed shards replay byte-identically. Global
// math/rand state is shared, order-dependent across goroutines, and
// (since Go 1.20) auto-seeded; a time-derived seed is nondeterminism with
// extra steps.
//
// Flagged everywhere except _test.go files (not loaded) and examples/
// (example mains keep fixed seeds by convention, pinned by their
// run-twice determinism tests): calls to math/rand or math/rand/v2
// package-level functions other than the explicit constructors
// (New/NewSource/NewZipf/NewPCG/NewChaCha8), constructor seed
// arguments derived from time.Now (detrand.New and Scoped included), and
// math/rand.NewSource itself: it fills a 607-word register per seed,
// while detrand.New yields the identical stream in O(1), so per-trial
// seeding has one path. crypto/rand is fine — it is intentional
// entropy, not simulation state. Deliberate uses are exempted with
// //lint:rand-exempt <reason>.
var SeededRand = &Analyzer{
	Name:      "seededrand",
	Directive: "rand-exempt",
	Doc:       "no global math/rand or time-derived seeds outside tests and examples",
	Run:       runSeededRand,
}

// randConstructors build explicitly-seeded sources; everything else
// exported by math/rand (Intn, Float64, Perm, Shuffle, Seed, Read, …)
// operates on the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// detrandPath is the package whose New and Scoped replace
// rand.New(rand.NewSource(seed)).
const detrandPath = "robustify/internal/detrand"

func runSeededRand(pass *Pass) {
	if strings.Contains(pass.Path, "/examples/") || strings.HasPrefix(pass.Path, "examples/") {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, fn := pass.pkgFunc(call)
			name, seeds := "rand", call.Args
			switch {
			case pkg == detrandPath && fn == "New":
				name = "detrand"
			case pkg == detrandPath && fn == "Scoped":
				// Only the seed counts: the trial body may read the clock.
				name, seeds = "detrand", seeds[:1]
			case pkg != "math/rand" && pkg != "math/rand/v2":
				return true
			case !randConstructors[fn]:
				pass.Report(call.Pos(), "rand.%s uses the global math/rand source; draw from an explicitly seeded detrand.New(seed) (or //lint:rand-exempt <reason>)", fn)
				return true
			}
			for _, arg := range seeds {
				if containsTimeCall(pass, arg) {
					pass.Report(call.Pos(), "%s.%s seeded from the clock is nondeterministic; use a fixed or configured seed (or //lint:rand-exempt <reason>)", name, fn)
					return true
				}
			}
			if pkg == "math/rand" && fn == "NewSource" {
				pass.Report(call.Pos(), "rand.NewSource fills all 607 register words per seed; detrand.New(seed) yields the identical stream in O(1) (or //lint:rand-exempt <reason>)")
			}
			return true
		})
	}
}

// containsTimeCall reports whether e's tree calls into package time
// (time.Now().UnixNano() being the canonical offender).
func containsTimeCall(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if pkg, _ := pass.pkgFunc(call); pkg == "time" {
				found = true
			}
		}
		return !found
	})
	return found
}
