package gpaw

import "fmt"

// notConvergedError is the uniform non-convergence error of the solver
// stack: every iterative solver reports its method name and the final
// relative residual it reached, so callers can always see how far a
// failed solve got without re-deriving it. Residuals are bit-identical
// across decompositions, so the error strings are too.
type notConvergedError struct {
	method string
	rel    float64
}

func (e *notConvergedError) Error() string {
	return fmt.Sprintf("gpaw: %s did not converge (relative residual %g)", e.method, e.rel)
}

// errNotConverged returns the solver stack's non-convergence error.
func errNotConverged(method string, rel float64) error {
	return &notConvergedError{method: method, rel: rel}
}

// errEigenNotConverged is the eigensolver variant: its convergence
// metric is the largest eigenvalue change of the last iteration, which
// it reports in place of a residual.
func errEigenNotConverged(iters int, maxDelta float64) error {
	return fmt.Errorf("gpaw: eigensolver did not converge in %d iterations (max eigenvalue change %g)", iters, maxDelta)
}
