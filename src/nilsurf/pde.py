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
that inverse is exact; it is spectrally equivalent to the Jacobian, which
keeps the CG count independent of the spacing (Concus & Golub, SIAM J.
Numer. Anal. 10, 1973).  The transform is applied as dense sine-matrix
products along each axis (Buzbee, Golub & Nielson, SIAM J. Numer. Anal.
7, 1970), split by mirror symmetry into two half-size products per axis
(_fast_poisson); newton_solve builds those matrices and the eigenvalues
once (_sine_basis), and every linear solve of the solve and of its
deferred correction shares them.  The initial guess is the discrete
harmonic extension of the boundary values (one linear solve, where the
preconditioner with shift 0 is the exact inverse), which puts the
iterate in the Newton basin for all tested data.

The steps are inexact Newton steps (Dembo, Eisenstat & Steihaug, SIAM J.
Numer. Anal. 19, 1982): each CG solve stops at the relative tolerance of
an Eisenstat-Walker forcing term (_forcing_term), loose while the
residual is large and tightening as it converges.  CG_RTOL is the forcing
term's floor and the tolerance of the harmonic fill.

The iteration stops when the residual max-norm reaches NEWTON_TOL or
ROUNDING_FLOOR_FACTOR times the residual's rounding floor at the iterate
(stencils.rounding_floor), whichever is larger, and fails after
NEWTON_MAX_ITER steps.  The stencil divides differences of u by h^2, so
on fine grids that floor passes NEWTON_TOL, and a fixed tolerance would
leave the line search stagnating above it.  The stopping rule is a
module constant, as the other numerical gates of the package are, not a
config key.

newton_solve is second-order accurate in h.  deferred_correction takes
its result to fourth order: it evaluates the 5-point truncation error
tau = (u_xxxx + u_yyyy) h^2/48 from the 5-point solution and solves the
same system again with tau as a fixed source, from that solution and on
the same sine basis (Fox 1947; Pereyra, Numer. Math. 10, 1967).

The module needs NumPy only: no matrix of the operator is assembled, and
one stencil (stencils.quarter_laplacian) serves the residual, the Newton
operator and the boundary coupling of the harmonic fill.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    LinearSolveFailure,
    MaxIterExceeded,
    PotentialDataError,
)
from .stencils import axis_steps, fourth_difference, quarter_laplacian, rounding_floor

CG_RTOL = 1e-12
CG_MAXITER = 40000
#: The Newton iteration's stopping tolerance on the residual max-norm and
#: its step cap.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
MIN_LINESEARCH_STEP = 1e-12
#: The Newton iteration stops at max(NEWTON_TOL, ROUNDING_FLOOR_FACTOR *
#: floor), with floor the rounding floor of the discrete residual
#: (stencils.rounding_floor).
ROUNDING_FLOOR_FACTOR = 2.0
EPS = np.finfo(float).eps
#: Every step of a solver axis keeps this relative distance to its mean
#: (stencils.axis_steps), and the two mean steps to each other.
SPACING_RTOL = 1e-12


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
                       (stencils.rounding_floor)
      q_abs_sq, basis  |Q0|^2 on the grid and the solve's _SineBasis, which
                       deferred_correction reuses
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    residual_field: np.ndarray
    residual_history: list = field(default_factory=list)
    newton_iterations: int = 0
    cg_iterations: list = field(default_factory=list)
    rounding_floor: float = 0.0
    q_abs_sq: np.ndarray = field(default=None, repr=False)
    basis: "_SineBasis" = field(default=None, repr=False)

    @property
    def final_residual(self):
        return float(np.max(np.abs(self.residual_field)))


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
        quarter_laplacian(u, h)
        - np.exp(ui) / 8.0
        + 2.0 * q0_abs_sq[1:-1, 1:-1] * np.exp(-ui)
    )
    return r


@dataclass
class _SineBasis:
    """The fast Poisson preconditioner's data for one interior grid.

    rows and cols hold the (sym, anti) halves of each axis's sine matrix
    (_sine_halves); lam holds the eigenvalues of -Laplacian/4 at spacing h,
    with both mode axes in the same split order as the halves.
    """

    h: float
    rows: tuple
    cols: tuple
    lam: np.ndarray


def _sine_halves(n):
    """Mirror halves of the orthonormal n-point DST-I matrix; (sym, anti, lam).

    S[j, k] = sqrt(2/(n+1)) sin(pi j k / (n+1)), j, k = 1..n, is symmetric,
    its own inverse, and satisfies S[n+1-j, k] = (-1)^(k+1) S[j, k]: odd
    modes k are even about the middle row and even modes odd.  sym holds
    the odd modes on the first ceil(n/2) rows (middle row included), anti
    the even modes on the first floor(n/2); both are square.  lam holds
    sin^2(pi k / 2(n+1)), the odd modes first, then the even ones.
    """
    k = np.arange(1, n + 1)
    half = n // 2
    scale = np.sqrt(2.0 / (n + 1))
    # j k reduced mod 2(n+1) keeps the sine's argument below 2 pi, where
    # its rounding error is that of one ulp of pi
    sym, anti = (
        scale * np.sin(np.pi * (np.outer(j, m) % (2 * (n + 1))) / (n + 1))
        for j, m in ((k[: n - half], k[0::2]), (k[:half], k[1::2]))
    )
    lam = np.sin(np.pi * k / (2 * (n + 1))) ** 2
    return sym, anti, np.concatenate([lam[0::2], lam[1::2]])


def _sine_basis(shape, h):
    """_SineBasis of the interior (rows, columns) shape at spacing h."""
    sym_y, anti_y, lam_y = _sine_halves(shape[0])
    sym_x, anti_x, lam_x = _sine_halves(shape[1])
    lam = (lam_y[:, None] + lam_x[None, :]) / (h * h)
    return _SineBasis(h, (sym_y, anti_y), (sym_x, anti_x), lam)


def _to_sines(r, sym, anti):
    """S r along axis 0, as coefficients in split order (odd modes first).

    Odd modes read the sums of mirrored rows (and the middle row), even
    modes their differences.  The column pass of _fast_poisson hands in a
    transposed view; the copies keep its memory order ("K"), so none of
    them transposes the data.
    """
    half, n_odd = anti.shape[0], sym.shape[0]
    head, tail = r[:n_odd], r[::-1][:half]
    sums = head.copy(order="K")
    sums[:half] += tail
    out = np.empty_like(r)
    np.matmul(sym.T, sums, out=out[:n_odd])
    np.matmul(anti.T, head[:half] - tail, out=out[n_odd:])
    return out


def _from_sines(a, sym, anti):
    """S a along axis 0 for split-order coefficients a; inverts _to_sines."""
    half, n_odd = anti.shape[0], sym.shape[0]
    even_about_middle = sym @ a[:n_odd]
    odd_about_middle = anti @ a[n_odd:]
    out = np.empty_like(a)
    out[:n_odd] = even_about_middle
    out[:half] += odd_about_middle
    np.subtract(even_about_middle[:half], odd_about_middle, out=out[::-1][:half])
    return out


def _fast_poisson(basis, shift):
    """Exact inverse of -Laplacian/4 + shift on the interior grid of basis.

    The orthonormal DST-I matrix S of each axis diagonalises -Laplacian/4
    with Dirichlet rows (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
    1970), so the inverse takes r to S_y (S_y r S_x / (lam + shift)) S_x.
    By the mirror symmetry of S (_sine_halves), each product by S is one
    product of a ceil(n/2)-square matrix with the sums of mirrored rows
    and one of a floor(n/2)-square matrix with their differences: on an m x n
    interior one application costs about m n (m + n) multiply-adds in
    eight BLAS-3 products, half as many as products by S.  That grows as
    n^3 on an n x n interior where FFT passes grow as n^2 log n, so near
    the MAX_NODES cap the products are the slower of the two.  Only
    1/(lam + shift) is formed here: the basis is built once per solve.
    Returns a function of an interior array.
    """
    inverse = 1.0 / (basis.lam + shift)
    rows, cols = basis.rows, basis.cols

    def solve(r):
        a = _to_sines(_to_sines(r, *rows).T, *cols).T * inverse
        return _from_sines(_from_sines(a.T, *cols).T, *rows)

    return solve


@np.errstate(over="ignore")
def _norm(a):
    """Euclidean norm of a, scaled by m = max|a| where its square overflows.

    np.linalg.norm squares the entries, so it is inf on a finite array
    whose entries pass about 1e154; m * norm(a / m) is then finite.
    """
    norm = np.linalg.norm(a)
    if norm == np.inf and np.all(np.isfinite(a)):
        m = np.max(np.abs(a))
        norm = m * np.linalg.norm(a / m)
    return norm


@np.errstate(over="ignore", invalid="ignore")
def _cg_solve(c, rhs, basis, context, rtol=CG_RTOL):
    """Solve (-Laplacian/4 + c) x = rhs on the interior grid; (x, iterations).

    c is a scalar or an interior array, rhs an interior array, basis the
    _SineBasis of the interior grid.  Conjugate gradients preconditioned
    by _fast_poisson with shift mean(c), stopped when the updated residual
    satisfies ||r|| < rtol ||rhs|| at the top of an iteration; the count
    is the number of completed iterations.  A Newton step passes its
    forcing term as rtol; the harmonic fill keeps the default CG_RTOL,
    which is also the forcing term's floor.  Raises LinearSolveFailure
    after CG_MAXITER iterations, or at the first residual whose norm
    (_norm, which does not overflow on a finite residual) is not finite:
    an rhs that is not finite fails after 0 iterations.
    """
    h = basis.h
    padded = np.zeros((rhs.shape[0] + 2, rhs.shape[1] + 2))
    precondition = _fast_poisson(basis, float(np.mean(c)))
    x = np.zeros_like(rhs)
    r = rhs.copy()
    stop = rtol * _norm(rhs)
    if stop == 0.0:
        return x, 0
    for iteration in range(CG_MAXITER):
        rnorm = _norm(r)
        if not np.isfinite(rnorm):
            raise LinearSolveFailure(
                f"conjugate gradients failed during {context} (residual norm "
                f"not finite after {iteration} iterations)"
            )
        if rnorm < stop:
            return x, iteration
        z = precondition(r)
        rz = np.vdot(r, z)
        p = z if iteration == 0 else z + (rz / rz_prev) * p
        padded[1:-1, 1:-1] = p
        q = c * p - quarter_laplacian(padded, h)
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
    previous_rnorm inf with previous_eta 0, the start of an iteration in
    Newton's local regime, gives the floor.
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


def _harmonic_fill(bc, basis):
    """Harmonic interior fill of the edges of bc; (u, CG iterations).

    bc is a float (ny, nx) array whose edge rows and columns hold the
    Dirichlet data; its interior entries are ignored.  basis is the
    _SineBasis of its interior.
    """
    u = bc.copy()
    u[1:-1, 1:-1] = 0.0
    u[1:-1, 1:-1], iterations = _cg_solve(
        0.0, quarter_laplacian(u, basis.h), basis, "harmonic extension"
    )
    return u, iterations


def newton_solve(q0_values, bc, x, y):
    """Solve the integrability equation for u = log rho0.

    Arguments:
      q0_values  complex Q0 samples on the full grid, shape (ny, nx)
      bc         Dirichlet data for u: scalar or full (ny, nx) array whose
                 edges are used (interior ignored)
      x, y       axes of 3 or more nodes that stencils.axis_steps takes
                 at SPACING_RTOL, with square cells to it; h is x's first step

    Stops by the module's rule (NEWTON_TOL, NEWTON_MAX_ITER).  Returns the
    SolveResult of the 5-point system.  Raises DomainError for other axes,
    PotentialDataError when |Q0|^2 is not finite on the grid,
    MaxIterExceeded when the iteration cap is hit or the line search
    stagnates, LinearSolveFailure when a conjugate-gradient solve does not
    converge.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 3 or y.size < 3:
        raise DomainError("solver grid needs at least 3 nodes per axis")
    h, x_mean = axis_steps(x, SPACING_RTOL, "solver x")
    y_mean = axis_steps(y, SPACING_RTOL, "solver y")[1]
    if abs(x_mean - y_mean) > SPACING_RTOL * abs(x_mean):
        raise DomainError("solver grid must have square cells")
    nx, ny = x.size, y.size
    q0_values = np.asarray(q0_values)
    if q0_values.shape != (ny, nx):
        raise DomainError(
            f"Q0 sample shape {q0_values.shape} does not match grid ({ny}, {nx})"
        )
    if np.isscalar(bc) or np.ndim(bc) == 0:
        bc = np.full((ny, nx), float(bc))
    else:
        bc = np.asarray(bc, dtype=float)
        if bc.shape != (ny, nx):
            raise DomainError(
                f"boundary data shape {bc.shape} does not match grid ({ny}, {nx})"
            )

    with np.errstate(over="ignore", invalid="ignore"):
        q2 = np.abs(q0_values) ** 2
    if not np.all(np.isfinite(q2)):
        raise PotentialDataError("|Q0|^2 is not finite on the solver grid")
    basis = _sine_basis((ny - 2, nx - 2), h)
    u, iterations = _harmonic_fill(bc, basis)
    return _newton(x, y, u, q2, basis, 0.0, [iterations])


def truncation_source(u, h):
    """tau = (u_xxxx + u_yyyy) h^2/48 on the interior nodes of u.

    The 5-point Laplacian/4 of a smooth u is Laplacian(u)/4 + tau + O(h^4)
    (stencils.quarter_laplacian), so tau evaluated from the 5-point
    solution is the defect the deferred correction removes.  Fourth
    derivatives come from stencils.fourth_difference along each axis.
    """
    d_yy = fourth_difference(u)[:, 1:-1]
    d_xx = fourth_difference(u.T).T[1:-1]
    return (d_xx + d_yy) / (48.0 * h * h)


def deferred_correction(result):
    """Fourth-order solution from the 5-point SolveResult of newton_solve.

    One deferred correction (Fox, Proc. R. Soc. A 190, 1947; Pereyra,
    Numer. Math. 10, 1967): the 5-point system is solved again with the
    truncation_source tau of result.u as a fixed source,

        Laplacian_h(u)/4 - tau - exp(u)/8 + 2|Q0|^2 exp(-u) = 0,

    whose solution is within O(h^4) of the continuous one.  The Jacobian
    is that of the 5-point system, so the Newton iteration starts from
    result.u and reuses result's sine basis and preconditioned CG, and it
    stops by newton_solve's rule.  The iteration starts in Newton's local
    regime, within O(h^2) of its solution, so its first forcing term is
    _forcing_term's floor: one step with a tight CG solve reaches
    NEWTON_TOL where Eisenstat-Walker's first term of 0.5 takes four.

    Returns the SolveResult of the corrected system: its residual_field
    is that system's residual, which is what the admissibility gate of a
    solved source reads.  Raises DomainError on a grid with fewer than 6
    nodes per axis, and what newton_solve raises.
    """
    if min(result.u.shape) < 6:
        raise DomainError("the deferred correction needs at least 6 nodes per axis")
    tau = truncation_source(result.u, result.basis.h)
    return _newton(
        result.x,
        result.y,
        result.u,
        result.q_abs_sq,
        result.basis,
        tau,
        cg_counter=[],
        local_start=True,
    )


@np.errstate(over="ignore", invalid="ignore")
def _newton(x, y, u, q2, basis, source, cg_counter, local_start=False):
    """Damped inexact Newton for pde_residual(u) - source from the iterate u.

    q2 is |Q0|^2 on the grid, basis its interior's _SineBasis, source 0.0
    or an interior array, and cg_counter the list the CG counts are
    appended to.  local_start takes the first forcing term as if an
    exact step had preceded (_forcing_term).  Returns the converged
    SolveResult (module docstring).  An exp(u) or exp(-u) that overflows
    raises no warning: a trial residual that is not finite fails the line
    search's decrease test, and a residual that is not finite fails the
    linear solve (_cg_solve).
    """
    h, tol, max_iter = basis.h, NEWTON_TOL, NEWTON_MAX_ITER

    def residual(v):
        r = pde_residual(v, q2, h)
        r[1:-1, 1:-1] -= source
        return r

    history = []
    r = residual(u)
    previous, eta = (np.inf, 0.0) if local_start else (None, None)
    for iteration in range(max_iter + 1):
        rnorm = float(np.max(np.abs(r)))
        history.append(rnorm)
        # the floor is at most 2 eps max|u| / h^2: evaluate it only below that
        reach = ROUNDING_FLOOR_FACTOR * 2.0 * EPS * np.max(np.abs(u)) / (h * h)
        stop = tol
        if tol < rnorm <= reach:
            stop = max(tol, ROUNDING_FLOOR_FACTOR * rounding_floor(u, h))
        if rnorm <= stop:
            return SolveResult(
                x=x,
                y=y,
                u=u,
                residual_field=r,
                residual_history=history,
                newton_iterations=iteration,
                cg_iterations=cg_counter,
                rounding_floor=rounding_floor(u, h),
                q_abs_sq=q2,
                basis=basis,
            )
        if iteration == max_iter:
            break
        if iteration:
            previous = history[-2]
        eta = _forcing_term(rnorm, previous, eta, tol)
        ui = u[1:-1, 1:-1]
        c = np.exp(ui) / 8.0 + 2.0 * q2[1:-1, 1:-1] * np.exp(-ui)
        delta, iterations = _cg_solve(
            c, r[1:-1, 1:-1], basis, f"newton step {iteration + 1}", rtol=eta
        )
        cg_counter.append(iterations)
        step = 1.0
        while True:
            trial = u.copy()
            trial[1:-1, 1:-1] += step * delta
            r = residual(trial)
            if np.max(np.abs(r)) < rnorm:
                break
            step *= 0.5
            if step < MIN_LINESEARCH_STEP:
                raise MaxIterExceeded(
                    iterations=iteration,
                    residual=rnorm,
                    tol=stop,
                    message="line search stagnated; residual no longer "
                    f"decreasing (rounding floor {rounding_floor(u, h):.3e})",
                )
        u = trial

    raise MaxIterExceeded(iterations=max_iter, residual=history[-1], tol=stop)
