"""Levenberg-Marquardt least squares and Brent's root finder, in numpy.

levenberg_marquardt follows MINPACK's lmder as Moré describes it ("The
Levenberg-Marquardt algorithm: implementation and theory", Lecture Notes in
Mathematics 630, 1978): a trust region on the column-scaled step, column
scales that only grow with the Jacobian's column norms, and the damping
parameter solved from Moré's secular equation.  The Jacobian is a forward
difference with step sqrt(eps) * max(1, |x|).  It is meant for a handful of
parameters, so each Jacobian is decomposed by an SVD of its scaled form,
which gives the step at any damping in closed form.

brent_root is Brent's bracketing root finder (Algorithms for Minimization
without Derivatives, 1973, ch. 4): inverse quadratic or secant steps, with a
bisection whenever they would not shrink the bracket fast enough.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

import numpy as np

_EPS = sys.float_info.epsilon
_DWARF = sys.float_info.min
_FD_STEP = math.sqrt(_EPS)


class LMResult(NamedTuple):
    """Solution of a least-squares problem and its diagnostics.

    jac_scaled is the forward-difference Jacobian at x with each column
    divided by its norm, and scale holds those norms (1 for a zero column),
    so the Jacobian is jac_scaled * scale.  nfev counts the residual
    evaluations at the start and at each trial step, as MINPACK's nfev does;
    each Jacobian costs n more, which it leaves out.  status is MINPACK's info
    code: 1 ftol, 2 xtol, 3 both, 4 gtol (all converged), 5 too many
    evaluations, or -1 when the residuals or the Jacobian are not finite.
    """

    x: np.ndarray
    fun: np.ndarray
    cost: float
    jac_scaled: np.ndarray
    scale: np.ndarray
    nfev: int
    success: bool
    status: int


def _quiet(fun):
    """fun as a float array, evaluated without floating-point warnings.

    A trial step whose residuals overflow or turn NaN is rejected, and a
    Jacobian that is not finite fails the fit, so these are handled, not lost.
    """

    def call(x):
        with np.errstate(all="ignore"):
            return np.asarray(fun(x), dtype=float)

    return call


def _forward_jacobian(fun, x: np.ndarray, f0: np.ndarray) -> np.ndarray:
    step = _FD_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    dx = (x + step) - x
    jac = np.empty((f0.size, x.size))
    for i in range(x.size):
        xi = x.copy()
        xi[i] += dx[i]
        with np.errstate(all="ignore"):
            jac[:, i] = (fun(xi) - f0) / dx[i]
    return jac


def _damped_step(s: np.ndarray, c: np.ndarray, delta: float, par: float):
    """Moré's lmpar: the damping par whose scaled step has norm ~delta.

    s are the singular values of the scaled Jacobian J D^-1 = U diag(s) V^T
    and c = U^T f.  At damping par the scaled Gauss-Newton system
    (J D^-1)^T (J D^-1) + par I has the solution V w with
    w = s c / (s^2 + par); returns par and w.  par is 0 when the undamped
    step (over the numerically nonzero s) is within 1.1 delta.
    """
    rank = s > _EPS * s.size * s[0]
    w = np.where(rank, c / np.where(rank, s, 1.0), 0.0)
    dxnorm = math.sqrt(float(w @ w))
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, w
    parl = 0.0
    if rank.all():  # the Newton step of the secular equation from par = 0
        parl = fp / delta / (float((w / s) @ (w / s)) / (dxnorm * dxnorm))
    gnorm = math.sqrt(float((s * c) @ (s * c)))
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for it in range(1, 11):
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        den = s * s + par
        w = s * c / den
        dxnorm = math.sqrt(float(w @ w))
        prev, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= prev < 0.0) or it == 10:
            break
        parc = fp / delta / (float((w * w) @ (1.0 / den)) / (dxnorm * dxnorm))
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, w


def levenberg_marquardt(
    fun: Callable[[np.ndarray], np.ndarray],
    x0,
    *,
    ftol: float = 1e-8,
    xtol: float = 1e-8,
    gtol: float = 1e-8,
    max_nfev: int | None = None,
) -> LMResult:
    """Minimise ||fun(x)||^2 from x0 by Levenberg-Marquardt without bounds.

    The tolerances are MINPACK's: ftol on the relative reduction of the sum
    of squares, xtol on the trust-region radius relative to the scaled x,
    gtol on the largest cosine between the residual and a Jacobian column.
    Below machine epsilon they cannot be met, and only max_nfev (default
    100 n, counted as LMResult.nfev) ends the fit.
    """
    fun = _quiet(fun)
    x = np.array(x0, dtype=float)
    n = x.size
    if max_nfev is None:
        max_nfev = 100 * n
    f = fun(x)
    nfev = 1
    if f.size < n or not np.all(np.isfinite(f)):
        return _result(fun, x, f, nfev, -1, None)
    fnorm = math.sqrt(float(f @ f))
    par = 0.0
    first = True
    status = 0
    jac = None
    while True:
        jac = _forward_jacobian(fun, x, f)
        if not np.all(np.isfinite(jac)):
            status = -1
            break
        acnorm = np.sqrt(np.einsum("ij,ij->j", jac, jac))
        if first:
            diag = np.where(acnorm == 0.0, 1.0, acnorm)
            xnorm = math.sqrt(float((diag * x) @ (diag * x)))
            delta = 100.0 * xnorm if xnorm > 0.0 else 100.0
        gnorm = 0.0
        if fnorm > 0.0:
            cosines = np.abs(jac.T @ f)[acnorm > 0.0] / (fnorm * acnorm[acnorm > 0.0])
            gnorm = float(cosines.max(initial=0.0))
        if gnorm <= gtol:
            status = 4
            break
        diag = np.maximum(diag, acnorm)
        u, s, vt = np.linalg.svd(jac / diag, full_matrices=False)
        c = u.T @ f
        while True:
            par, w = _damped_step(s, c, delta, par)
            z = -(w @ vt)  # the scaled step D p
            p = z / diag
            x_new = x + p
            pnorm = math.sqrt(float(z @ z))
            if first:
                delta = min(delta, pnorm)
            f_new = fun(x_new)
            nfev += 1
            with np.errstate(over="ignore"):  # an overflowing trial step is rejected below
                fnorm1 = math.sqrt(float(f_new @ f_new))
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                actred = 1.0 - (fnorm1 / fnorm) * (fnorm1 / fnorm)
            temp1 = math.sqrt(float((s * w) @ (s * w))) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1 * temp1 + 2.0 * temp2 * temp2
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par = par / temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par = 0.5 * par
            if ratio >= 1e-4:
                x, f, fnorm = x_new, f_new, fnorm1
                xnorm = math.sqrt(float((diag * x) @ (diag * x)))
                first = False
                jac = None
            small_f = abs(actred) <= ftol and prered <= ftol and 0.5 * ratio <= 1.0
            small_x = delta <= xtol * xnorm
            if small_f or small_x:
                status = (1 if small_f else 0) + (2 if small_x else 0)
            elif nfev >= max_nfev:
                status = 5
            if status or ratio >= 1e-4:
                break
        if status:
            break
    return _result(fun, x, f, nfev, status, jac)


def _result(fun, x, f, nfev, status, jac) -> LMResult:
    """Package the solution with the scaled Jacobian at x."""
    if jac is None and status != -1:
        jac = _forward_jacobian(fun, x, f)
        if not np.all(np.isfinite(jac)):
            status = -1
    if status == -1:
        jac = np.zeros((f.size, x.size))
    scale = np.sqrt(np.einsum("ij,ij->j", jac, jac))
    scale[scale == 0.0] = 1.0
    with np.errstate(all="ignore"):
        cost = 0.5 * float(f @ f)
    return LMResult(x, f, cost, jac / scale, scale, nfev, 1 <= status <= 4, status)


def brent_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
               *, xtol: float) -> float:
    """Root of f in [a, b], given fa = f(a) and fb = f(b) of opposite signs.

    Stops when the bracket around the estimate is narrower than
    xtol + 4 eps |x|, or after 100 further evaluations of f, and returns
    the estimate.
    """
    rtol = 4 * _EPS
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError(f"f({a!r}) = {fa!r} and f({b!r}) = {fb!r} do not bracket a root")
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        tol = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < tol:
            return xcur
        if abs(spre) > tol and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - tol):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > tol else (tol if sbis > 0.0 else -tol)
        fcur = f(xcur)
    return xcur
