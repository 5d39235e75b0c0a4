"""The frame march stepped node by node: the reference of the tests.

`nilsurf.frame.integrate_grid` marches one path, row-major with one RK4
step per segment, in paired steps on row 0 of the triple, with the
increments of many steps evaluated at once.  The reference here takes one
step at a time on the full (3, 2, 2, T, n) triple, with the program's own
kernel (`frame._rk4` on that step's `frame._omega` of `frame._sample`), so
on that path it gives the program's frames bit for bit.  It also marches column-major and
with substeps, which the program does not: path independence and the RK4
order are checked by comparing those marches with the program's.
"""

import numpy as np

from nilsurf import frame


def full_step(potential, state, z0, z1, phase):
    """One RK4 step of the full (3, 2, 2, T, n) triple from z0 to z1.

    The program's kernel on the increments of this one step, from the
    potential sampled at its start, midpoint and end; the march itself
    steps row 0 only, on increments evaluated for many steps at once.
    """
    z0 = np.asarray(z0, dtype=complex)
    z1 = np.asarray(z1, dtype=complex)
    dz = z1 - z0
    return frame._rk4(
        state,
        *(
            frame._omega(frame._sample(potential, z), dz, phase)
            for z in (z0, z0 + dz / 2.0, z1)
        ),
    )


def reference_march(potential, x, y, t_values, path_order="row-major", substeps=1):
    """The frame march, one full-state step per (sub)step.

    The base line is marched node by node outward from the node nearest
    z = 0 (after a starting step from z = 0 when that node is not 0), then
    whole rows (columns for "column-major") outward from the base line;
    substeps > 1 splits every segment into that many equal RK4 steps,
    scaling the local error by substeps^-4.  Returns the triple of each
    member as arrays of shape (3, ny, nx, 2, 2).
    """
    if path_order not in ("row-major", "column-major"):
        raise ValueError(f"unknown path order {path_order!r}")
    phase = np.exp(2j * np.asarray(t_values))[:, None]
    z = x[None, :] + 1j * y[:, None]
    i0, j0 = int(np.argmin(np.abs(x))), int(np.argmin(np.abs(y)))
    if path_order == "column-major":
        z, i0, j0 = z.T, j0, i0
    out = np.zeros((3, 2, 2, len(t_values)) + z.shape, dtype=complex)

    def advance(state, z0, z1):
        if substeps == 1:
            return full_step(potential, state, z0, z1, phase)
        for k in range(substeps):
            a = z0 + (z1 - z0) * (k / substeps)
            b = z0 + (z1 - z0) * ((k + 1) / substeps)
            state = full_step(potential, state, a, b, phase)
        return state

    state = np.zeros((3, 2, 2, len(t_values), 1), dtype=complex)
    state[0, 0, 0] = state[0, 1, 1] = 1.0
    if z[j0, i0] != 0.0:
        # 0-d points, as in the march: a 1-element array can round otherwise
        state = advance(state, np.asarray(0.0j), np.asarray(z[j0, i0]))
    out[..., j0, i0 : i0 + 1] = state
    n_rows, n_cols = z.shape
    for cols in (range(i0 + 1, n_cols), range(i0 - 1, -1, -1)):
        for i in cols:
            src = i - 1 if i > i0 else i + 1
            out[..., j0, i : i + 1] = advance(
                out[..., j0, src : src + 1], z[j0, src : src + 1], z[j0, i : i + 1]
            )
    for rows in (range(j0 + 1, n_rows), range(j0 - 1, -1, -1)):
        for j in rows:
            src = j - 1 if j > j0 else j + 1
            out[..., j, :] = advance(out[..., src, :], z[src], z[j])
    if path_order == "column-major":
        out = out.swapaxes(-1, -2)
    return [np.moveaxis(out[:, :, :, m], (1, 2), (3, 4)) for m in range(len(t_values))]
