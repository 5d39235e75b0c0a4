"""Exception hierarchy for nilsurf.

Every error raised deliberately by this package derives from NilsurfError,
so callers can catch the package's failures without swallowing unrelated
bugs.  The command-line pipeline maps these onto its exit codes.
"""


class NilsurfError(Exception):
    """Base class for all nilsurf errors."""


class SchemaError(NilsurfError):
    """A run configuration does not match the documented schema.

    Carries the path to the offending key, e.g. "potential.rho0.source".
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class DomainError(NilsurfError):
    """A point or rectangle violates a domain requirement.

    Examples: the grid does not contain z = 0, an evaluation point lies
    outside a solved-grid rectangle, or the Liouville density is requested
    at |z| >= 1.
    """


class PotentialDataError(NilsurfError):
    """Stored potential data is unusable (e.g. a corrupted solve)."""


class MaxIterExceeded(NilsurfError):
    """Newton iteration did not reach the residual tolerance."""

    def __init__(self, iterations, residual, tol, message=None):
        self.iterations = iterations
        self.residual = residual
        self.tol = tol
        if message is None:
            message = "Newton solver stalled"
        super().__init__(
            f"{message} after {iterations} iterations: "
            f"residual {residual:.3e} > tol {tol:.3e}"
        )


class LinearSolveFailure(NilsurfError):
    """An inner conjugate-gradient solve failed to converge."""


class NonFlatInput(NilsurfError):
    """Potential data fails the zero-curvature check.

    Integrating a non-flat connection gives path-dependent, meaningless
    frames, so the integrator refuses instead of producing garbage.
    """


class ShapeViolation(NilsurfError):
    """A matrix strays from the algebraic shape required by the model.

    Raised when a matrix expected to encode a point of the ambient space
    (real diagonal with equal entries, conjugate off-diagonal entries)
    deviates by more than the stated tolerance.
    """


class SingularFrameError(NilsurfError):
    """A frame matrix is numerically singular and cannot be inverted."""


class DegenerateNode(NilsurfError):
    """The tangent plane degenerates at a node (immersion fails there)."""
