// Package solver provides the stochastic optimization engines of the paper:
// stochastic (sub)gradient descent with the step schedules, momentum,
// aggressive stepping, and penalty annealing of Chapters 3 and 6.2, and the
// conjugate gradient method of §3.3/§6.3.
//
// The engines draw a hard line between the data path and the control path,
// mirroring the paper's reliability assumption: gradient evaluations (the
// bulk of the FLOPs) run on the problem's stochastic FPU, while step-size
// control, iterate updates, convergence checks, and annealing run reliably.
package solver

import "math"

// Schedule maps the 1-based iteration number to a step size.
type Schedule func(iter int) float64

// Linear returns the 1/t schedule of Theorem 1's strongly convex case
// ("LS" in the paper's figures): step(t) = eta0/t.
func Linear(eta0 float64) Schedule {
	return func(iter int) float64 { return eta0 / float64(iter) }
}

// Sqrt returns the 1/√t schedule of Theorem 1's convex case ("SQS"):
// step(t) = eta0/√t. It decays slower than Linear, keeping later
// iterations making progress at the price of a larger noise floor.
func Sqrt(eta0 float64) Schedule {
	return func(iter int) float64 { return eta0 / math.Sqrt(float64(iter)) }
}

// Constant returns a fixed step size.
func Constant(eta0 float64) Schedule {
	return func(int) float64 { return eta0 }
}
