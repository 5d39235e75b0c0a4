"""Newton solver for the integrability equation in u = log rho0.

Admissible densities satisfy the elliptic equation

    Laplacian(u)/4 - exp(u)/8 + 2|Q0|^2 exp(-u) = 0

on a rectangle, here discretized with the standard 5-point Laplacian on a
uniform grid with square cells and Dirichlet boundary values in u.  The
substitution u = log rho0 makes positivity of the recovered density
structural and the equation's zeroth-order part monotone in u, so damped
Newton iteration converges globally for the boundary data of interest.

Each Newton step solves the symmetric positive definite system

    (-Laplacian/4 + diag(c)) delta = residual,  c = exp(u)/8 + 2|Q0|^2 exp(-u)

by conjugate gradients preconditioned by the DST-I inverse of
-Laplacian/4 + mean(c), followed by a step-halving line search on the
max-norm of the nonlinear residual.  The 5-point Laplacian with Dirichlet
rows is diagonalised by the discrete sine transform on a uniform grid, so
that inverse is exact and costs four real FFT passes; it is spectrally
equivalent to the Jacobian, which keeps the CG count independent of the
spacing (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).  The initial
guess is the discrete harmonic extension of the boundary values (one
linear solve, where the preconditioner with shift 0 is the exact
inverse), which puts the iterate in the Newton basin for all tested data.

The steps are inexact Newton steps (Dembo, Eisenstat & Steihaug, SIAM J.
Numer. Anal. 19, 1982): each CG solve stops at the relative tolerance of
an Eisenstat-Walker forcing term (_forcing_term), loose while the
residual is large and tightening as it converges.  CG_RTOL is the forcing
term's floor and the tolerance of the harmonic fill.

The iteration stops when the residual max-norm reaches tol or
ROUNDING_FLOOR_FACTOR times the residual's rounding floor at the iterate
(_rounding_floor), whichever is larger.  The stencil divides differences
of u by h^2, so on fine grids that floor passes the default tol, and a
fixed tol would leave the line search stagnating above it.

The module needs NumPy only: no matrix is assembled, and the one stencil
(_quarter_laplacian) serves the residual, the Newton operator and the
boundary coupling of the harmonic fill.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_SOLVER
from .errors import DomainError, LinearSolveFailure, MaxIterExceeded

CG_RTOL = 1e-12
CG_MAXITER = 40000
MIN_LINESEARCH_STEP = 1e-12
#: The Newton iteration stops at max(tol, ROUNDING_FLOOR_FACTOR * floor),
#: with floor the rounding floor of the discrete residual (_rounding_floor).
ROUNDING_FLOOR_FACTOR = 2.0
EPS = np.finfo(float).eps


@dataclass
class SolveResult:
    """Converged solve of the integrability equation.

    Attributes:
      x, y             grid axes (1-D, uniform, square cells)
      u                solved field log rho0, shape (len(y), len(x))
      residual_field   discrete residual of the final iterate (same shape)
      residual_history max-norm residual after each Newton step, starting
                       with the harmonic-extension initial guess
      newton_iterations  number of Newton updates taken
      cg_iterations    conjugate-gradient iteration counts, one per linear
                       solve (initial guess first); each Newton step's
                       solve stops at its forcing term, whose floor is
                       CG_RTOL, the harmonic fill's tolerance
      rounding_floor   rounding floor of the residual at the final iterate
                       (_rounding_floor)
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    residual_field: np.ndarray
    residual_history: list = field(default_factory=list)
    newton_iterations: int = 0
    cg_iterations: list = field(default_factory=list)
    rounding_floor: float = 0.0

    @property
    def final_residual(self):
        return float(np.max(np.abs(self.residual_field)))

    @property
    def spacing(self):
        return float(self.x[1] - self.x[0])


def _check_axes(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3 or y.size < 3:
        raise DomainError("solver grid needs at least 3 nodes per axis")
    hx = np.diff(x)
    hy = np.diff(y)
    h = hx[0]
    if not (
        np.allclose(hx, h, rtol=1e-12, atol=0)
        and np.allclose(hy, h, rtol=1e-12, atol=0)
    ):
        raise DomainError("solver grid must be uniform with square cells")
    return x, y, float(h)


def _quarter_laplacian(u, h):
    """Laplacian(u)/4 on the interior nodes of u, 5-point stencil at spacing h.

    The one discrete operator of the module: the residual applies it to the
    iterate, the Newton step to the zero-padded search direction, and the
    harmonic fill to the boundary data with a zeroed interior.
    """
    lap = (
        u[1:-1, 2:]
        + u[1:-1, :-2]
        + u[2:, 1:-1]
        + u[:-2, 1:-1]
        - 4.0 * u[1:-1, 1:-1]
    ) / h**2
    return lap / 4.0


def pde_residual(u, q0_abs_sq, h):
    """Discrete residual field of the integrability equation.

    Interior nodes carry Laplacian(u)/4 - exp(u)/8 + 2|Q0|^2 exp(-u) with
    the 5-point Laplacian at spacing h; boundary nodes are zero (Dirichlet
    rows are satisfied identically).
    """
    u = np.asarray(u, dtype=float)
    r = np.zeros_like(u)
    ui = u[1:-1, 1:-1]
    r[1:-1, 1:-1] = (
        _quarter_laplacian(u, h)
        - np.exp(ui) / 8.0
        + 2.0 * q0_abs_sq[1:-1, 1:-1] * np.exp(-ui)
    )
    return r


def _rounding_floor(u, h):
    """Rounding floor of the max-norm residual at the iterate u.

    The stencil divides differences of u by h^2, so one unit of roundoff
    in its five terms is eps (|u_E| + |u_W| + |u_N| + |u_S| + 4|u|) / 4h^2;
    the largest value over the interior nodes is the floor.  On a fine
    grid it exceeds a fixed tol: about 4e-10 at 513^2 on Liouville data.
    """
    a = np.abs(u)
    terms = (
        a[1:-1, 2:] + a[1:-1, :-2] + a[2:, 1:-1] + a[:-2, 1:-1] + 4.0 * a[1:-1, 1:-1]
    )
    return float(EPS * np.max(terms) / (4.0 * h * h))


def _dst1(a, axis):
    """Orthonormal DST-I of a along axis; the transform is its own inverse."""
    a = np.moveaxis(a, axis, -1)
    n = a.shape[-1]
    pad = np.zeros(a.shape[:-1] + (1,))
    odd = np.concatenate([pad, a, pad, -a[..., ::-1]], axis=-1)
    out = np.fft.rfft(odd, axis=-1).imag[..., 1 : n + 1] * -np.sqrt(0.5 / (n + 1))
    return np.moveaxis(out, -1, axis)


def _fast_poisson(shape, h, shift):
    """Exact inverse of -Laplacian/4 + shift on the interior grid, by DST-I.

    shape is the interior (rows, columns) with spacing h; the eigenvalues of
    -Laplacian/4 there are (sin^2(pi k / 2(m+1)) + sin^2(pi l / 2(n+1))) / h^2.
    Returns a function of an interior array.
    """
    m, n = shape
    lam_y = np.sin(np.pi * np.arange(1, m + 1) / (2 * (m + 1))) ** 2
    lam_x = np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) ** 2
    inverse = 1.0 / ((lam_y[:, None] + lam_x[None, :]) / (h * h) + shift)

    def solve(r):
        return _dst1(_dst1(_dst1(_dst1(r, 0), 1) * inverse, 1), 0)

    return solve


def _cg_solve(c, rhs, h, context, rtol=CG_RTOL):
    """Solve (-Laplacian/4 + c) x = rhs on the interior grid; (x, iterations).

    c is a scalar or an interior array, rhs an interior array.  Conjugate
    gradients preconditioned by _fast_poisson with shift mean(c), stopped
    when the updated residual satisfies ||r|| < rtol ||rhs|| at the top of
    an iteration; the count is the number of completed iterations.  A
    Newton step passes its forcing term as rtol; the harmonic fill keeps
    the default CG_RTOL, which is also the forcing term's floor.
    Raises LinearSolveFailure after CG_MAXITER iterations.
    """
    padded = np.zeros((rhs.shape[0] + 2, rhs.shape[1] + 2))
    precondition = _fast_poisson(rhs.shape, h, float(np.mean(c)))
    x = np.zeros_like(rhs)
    r = rhs.copy()
    stop = rtol * np.linalg.norm(rhs)
    if stop == 0.0:
        return x, 0
    for iteration in range(CG_MAXITER):
        if np.linalg.norm(r) < stop:
            return x, iteration
        z = precondition(r)
        rz = np.vdot(r, z)
        p = z if iteration == 0 else z + (rz / rz_prev) * p
        padded[1:-1, 1:-1] = p
        q = c * p - _quarter_laplacian(padded, h)
        alpha = rz / np.vdot(p, q)
        x += alpha * p
        r -= alpha * q
        rz_prev = rz
    raise LinearSolveFailure(
        f"conjugate gradients failed during {context} "
        f"({CG_MAXITER} iterations without convergence)"
    )


def _forcing_term(rnorm, previous_rnorm, previous_eta, tol):
    """Relative CG tolerance for the Newton step at residual max-norm rnorm.

    Eisenstat-Walker "choice 2" with gamma = 0.9 and exponent 2 (SIAM J.
    Sci. Comput. 17, 1996): 0.5 on the first step (previous_rnorm None),
    then 0.9 (rnorm / previous_rnorm)^2, raised to 0.9 previous_eta^2 when
    that exceeds 0.1, capped at 0.5, and floored at 0.5 tol / rnorm (no
    accuracy beyond what the stopping test needs) and at CG_RTOL.
    """
    if previous_rnorm is None:
        eta = 0.5
    else:
        eta = 0.9 * (rnorm / previous_rnorm) ** 2
        safeguard = 0.9 * previous_eta**2
        if safeguard > 0.1:
            eta = max(eta, safeguard)
    eta = min(eta, 0.5)
    return max(eta, 0.5 * tol / rnorm, CG_RTOL)


def _harmonic_fill(bc, h):
    """Harmonic interior fill of the edges of bc; (u, CG iterations)."""
    u = bc.copy()
    u[1:-1, 1:-1] = 0.0
    u[1:-1, 1:-1], iterations = _cg_solve(
        0.0, _quarter_laplacian(u, h), h, "harmonic extension"
    )
    return u, iterations


def harmonic_extension(bc, h):
    """Discrete harmonic interior fill of the boundary values in bc.

    bc is a full (ny, nx) array whose edge rows/columns hold the Dirichlet
    data; interior entries are ignored.  Returns a full field agreeing with
    bc on the boundary and discretely harmonic inside.
    """
    return _harmonic_fill(np.asarray(bc, dtype=float), h)[0]


def newton_solve(
    q0_values,
    bc,
    x,
    y,
    tol=DEFAULT_SOLVER["tol"],
    max_iter=DEFAULT_SOLVER["max_iter"],
):
    """Solve the integrability equation for u = log rho0.

    Arguments:
      q0_values  complex Q0 samples on the full grid, shape (ny, nx)
      bc         Dirichlet data for u: scalar or full (ny, nx) array whose
                 edges are used (interior ignored)
      x, y       uniform axes with square cells
      tol        convergence threshold on the residual max-norm, raised
                 to ROUNDING_FLOOR_FACTOR times the rounding floor where
                 that is larger
      max_iter   Newton iteration cap

    Returns a SolveResult.  Raises MaxIterExceeded when the iteration cap
    is hit or the line search stagnates, LinearSolveFailure when a
    conjugate-gradient solve does not converge.
    """
    x, y, h = _check_axes(x, y)
    nx, ny = x.size, y.size
    q0_values = np.asarray(q0_values)
    if q0_values.shape != (ny, nx):
        raise DomainError(
            f"Q0 sample shape {q0_values.shape} does not match grid ({ny}, {nx})"
        )
    q2 = np.abs(q0_values) ** 2
    if np.isscalar(bc) or np.ndim(bc) == 0:
        bc = np.full((ny, nx), float(bc))
    else:
        bc = np.asarray(bc, dtype=float)
        if bc.shape != (ny, nx):
            raise DomainError(
                f"boundary data shape {bc.shape} does not match grid ({ny}, {nx})"
            )

    u, iterations = _harmonic_fill(bc, h)
    cg_counter = [iterations]

    history = []
    r = pde_residual(u, q2, h)
    eta = None
    for iteration in range(max_iter + 1):
        rnorm = float(np.max(np.abs(r)))
        history.append(rnorm)
        # the floor is at most 2 eps max|u| / h^2: evaluate it only below that
        reach = ROUNDING_FLOOR_FACTOR * 2.0 * EPS * np.max(np.abs(u)) / (h * h)
        stop = tol
        if tol < rnorm <= reach:
            stop = max(tol, ROUNDING_FLOOR_FACTOR * _rounding_floor(u, h))
        if rnorm <= stop:
            return SolveResult(
                x=x,
                y=y,
                u=u,
                residual_field=r,
                residual_history=history,
                newton_iterations=iteration,
                cg_iterations=cg_counter,
                rounding_floor=_rounding_floor(u, h),
            )
        if iteration == max_iter:
            break
        eta = _forcing_term(rnorm, history[-2] if iteration else None, eta, tol)
        ui = u[1:-1, 1:-1]
        c = np.exp(ui) / 8.0 + 2.0 * q2[1:-1, 1:-1] * np.exp(-ui)
        delta, iterations = _cg_solve(
            c, r[1:-1, 1:-1], h, f"newton step {iteration + 1}", rtol=eta
        )
        cg_counter.append(iterations)
        step = 1.0
        while True:
            trial = u.copy()
            trial[1:-1, 1:-1] += step * delta
            r = pde_residual(trial, q2, h)
            if np.max(np.abs(r)) < rnorm:
                break
            step *= 0.5
            if step < MIN_LINESEARCH_STEP:
                raise MaxIterExceeded(
                    iterations=iteration,
                    residual=rnorm,
                    tol=stop,
                    message="line search stagnated; residual no longer "
                    f"decreasing (rounding floor {_rounding_floor(u, h):.3e})",
                )
        u = trial

    raise MaxIterExceeded(iterations=max_iter, residual=history[-1], tol=stop)
