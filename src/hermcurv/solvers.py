"""Constant-second-scalar-curvature solvers on periodic grid metrics.

Three problems, each returning a SolverReport with residual certificates and
the curvature of e^f omega by `conformal.s2_law` on the lap f the solve holds:

* zero degree:     lap_C f = S_C2(omega),  f mean-zero least squares
* negative degree: a loose e^u omega with S_C2 < 0, then for f on it Newton
                   at a = 1, the continuity path in a as fallback,
                   F(a, f) = lap_C f - a S + lam e^f - lam (1 - a) = 0, with
                   inexact (Eisenstat-Walker) corrections D w = lap_C w + lam e^f w;
                   the solution is F = u + f, which does not depend on u
* Bismut-Yamabe:   projected Sobolev (H1) gradient descent on one discrete
                   functional U_h(phi) = -<phi, lap_C phi>_w + N1 <S_B2 phi, phi>_w
                   over positive fields with sum(phi^q) constrained, then
                   Newton polish of the gradient's Euler-Lagrange system

The discrete complex Laplacian is not symmetric.  Every linear solve runs on
the one BiCGStab routine: the least-squares stage (zero-degree solve and
negative-degree normalization) on the mean-zero normal equations, and the
Newton and Euler-Lagrange corrections on their own systems.  All are
preconditioned with the Fourier symbol of the flat-coefficient operator
(squared for the normal equations), which keeps iteration counts flat in N
on these desk-scale problems.  That symbol is real and even, so the
preconditioner is a real FFT (`rfftn`/`irfftn`) times the half-spectrum of
its masked inverse power, cached for the last (shift, power).  The same
symbol is the Bismut-Yamabe descent's metric: the nodal gradient is smoothed
by (1 - flat lap)^{-1}, which damps each Fourier mode by its own stiffness,
so the stiffest grid mode no longer sets the step and the descent's
iteration count stays flat in N.

Each solve gates its own residual with its one `tol`, failing closed (a NaN
fails), and `_require` checks the input's classes against CLASS_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conformal import gradient_terms, law_coefficients, s2_law, torsion_pairing
from .curvature import CLASS_TOL, einstein_residual
from .grid import (GridMetric, TorusField, complex_laplacian, dz,
                   gauduchon_degrees, integrate)

__all__ = ["SolverReport", "PreconditionError",
           "ConvergenceError", "solve_chern_zero", "normalize_to_negative",
           "solve_chern_negative", "continuity_solve",
           "bismut_yamabe_minimize", "lozenge_constancy_check"]

# Solver settings.  Every problem runs with these values from every caller.
ZERO_DEGREE_TOL = 1e-5      # |Gamma^2| accepted as the zero-degree case
NORMALIZE_TOL = 1e-3        # loose: u only needs S_C2(e^u omega) < 0 (DECISIONS.md D7)
NEWTON_TOL = 1e-10          # sup residual ending each continuity Newton solve
NEWTON_MAX = 50
EL_KRYLOV_TOL = 1e-12       # BiCGStab tolerance of an Euler-Lagrange step
BICGSTAB_MAXIT = 500
PGD_MAX = 300
EINSTEIN_TOL = 1e-8
CONSTANCY_TOL = 1e-8        # S_C2 variance asserted when Einstein holds


class PreconditionError(ValueError):
    """Input violates a solver precondition (CLI exit code 2)."""


class ConvergenceError(RuntimeError):
    """Solver failed to reach its tolerance (CLI exit code 3)."""


@dataclass
class SolverReport:
    solution: TorusField
    lam: float
    residual_linf: float
    residual_l2: float
    path_trace: list = field(default_factory=list)
    energy_trace: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


# -- discrete operator kit ----------------------------------------------------

class _LaplacianOp:
    """lap_C as a real linear operator with transpose and flat preconditioner.

    `symbol` is the flat symbol's `rfftn` half-spectrum (last axis N//2 + 1).
    """

    def __init__(self, gm: GridMetric):
        self.gm = gm
        self.grid = gm.grid
        self.terms = gm.laplacian_terms
        self.symbol = self._flat_symbol()
        self._axes = tuple(range(self.symbol.ndim))
        self._inverse_key = None
        self._inverse = None

    def _flat_symbol(self) -> np.ndarray:
        # half-spectrum symbol of the diagonal terms with mean coefficients
        grid = self.grid
        last = 2 * self.gm.n - 1
        half = grid.N // 2 + 1
        sym = np.zeros(grid.shape[:-1] + (half,))
        for t in (t for t in self.terms if t.i == t.j):
            c = float(np.mean(t.coef))
            for a in (2 * t.i, 2 * t.i + 1):
                s = grid.d2_symbol(a)[:half] if a == last else grid.d2_symbol(a)
                shape = [1] * (last + 1)
                shape[a] = len(s)
                sym += c * s.reshape(shape)
        return sym

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        # lap = sum c_k S_k with symmetric stencils S_k, so lap^T = sum S_k c_k
        out = np.zeros(self.grid.shape)
        for t in self.terms:
            out += t.stencil(self.grid, t.coef * v)
        return out

    def _inverse_symbol(self, shift: float, power: int) -> np.ndarray:
        """1 / (symbol + shift)**power, and 0 where |symbol + shift| < 1e-14."""
        if self._inverse_key != (shift, power):
            sym = self.symbol + shift
            bad = np.abs(sym) < 1e-14
            sym[bad] = 1.0
            inv = 1.0 / sym ** power
            inv[bad] = 0.0
            self._inverse_key, self._inverse = (shift, power), inv
        return self._inverse

    def precondition(self, r: np.ndarray, shift: float = 0.0,
                     power: int = 1) -> np.ndarray:
        rh = np.fft.rfftn(r, axes=self._axes)
        rh *= self._inverse_symbol(shift, power)
        return np.fft.irfftn(rh, s=r.shape, axes=self._axes)


def _mean_zero(u: np.ndarray) -> np.ndarray:
    return u - np.mean(u)


def _denominator(name: str, value: float) -> float:
    """A BiCGStab denominator; zero or non-finite is a breakdown."""
    if not 1e-300 <= abs(value) < np.inf:
        raise ConvergenceError(f"BiCGStab breakdown ({name} = {value:.3e})")
    return value


def bicgstab(apply_op, b: np.ndarray, precond, tol: float):
    """Textbook preconditioned BiCGStab on real grid fields.

    A zero right-hand side has the exact solution 0; a zero or non-finite
    denominator (rho, rhat.v, omega) is a breakdown and raises ConvergenceError.
    """
    x = np.zeros_like(b)
    bnorm = float(np.max(np.abs(b)))
    if bnorm == 0.0:
        return x, 0.0
    r = b.copy()
    rhat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for it in range(BICGSTAB_MAXIT):
        rho_new = _denominator("rho", float(np.sum(rhat * r)))
        beta = (rho_new / rho) * (alpha / omega) if it else 0.0
        p = r + beta * (p - omega * v) if it else r.copy()
        phat = precond(p)
        v = apply_op(phat)
        alpha = rho_new / _denominator("rhat.v", float(np.sum(rhat * v)))
        s = r - alpha * v
        x = x + alpha * phat
        if np.max(np.abs(s)) < tol * bnorm:
            return x, float(np.max(np.abs(s)))
        shat = precond(s)
        t = apply_op(shat)
        tt = float(np.sum(t * t))
        omega = _denominator("omega", float(np.sum(t * s)) / tt if tt > 0 else 0.0)
        x = x + omega * shat
        r = s - omega * t
        if np.max(np.abs(r)) < tol * bnorm:
            return x, float(np.max(np.abs(r)))
        rho = rho_new
    raise ConvergenceError(f"BiCGStab stagnated (residual {np.max(np.abs(r)):.3e})")


def lstsq_mean_zero(op: _LaplacianOp, rhs: np.ndarray, tol: float = 1e-12):
    """Least squares min ||lap f - rhs|| over mean-zero f, by `bicgstab`.

    Solves the mean-zero normal equations mean_zero(lap^T lap f) =
    mean_zero(lap^T rhs), preconditioned with the squared flat symbol, to a
    relative max-norm residual of tol; returns (f, lap f).
    """
    def normal(v):
        return _mean_zero(op.apply_transpose(complex_laplacian(op.gm, v)))

    f, _ = bicgstab(normal, _mean_zero(op.apply_transpose(rhs)),
                    lambda v: op.precondition(v, power=2), tol)
    f = _mean_zero(f)
    return f, complex_laplacian(op.gm, f)


def _conformal_s2(gm: GridMetric, s2: np.ndarray, f: np.ndarray,
                  lap_f: np.ndarray, t: float = 0.0) -> np.ndarray:
    """S_C2 at t of e^f omega by `s2_law` from the base s2 at t and lap f."""
    grad2 = kappa = 0.0
    if t:  # |df|^2 and kappa enter with t^2: differentiate f only if t != 0
        df = np.stack([dz(f, i, gm.grid) for i in range(gm.n)])
        grad2, kappa = gradient_terms(gm.jet, gm.traces.tau, df)
    return s2_law(gm.n, t, f, s2, lap_f, grad2, kappa)


def _require(gm: GridMetric, *classes: str) -> None:
    """Refuse gm unless each class residual named (in any case) is below CLASS_TOL."""
    res = gm.class_residuals()
    if not all(res[c.lower()] < CLASS_TOL for c in classes):
        found = ", ".join(f"{c} {res[c.lower()]:.3e}" for c in classes)
        raise PreconditionError(f"input metric fails the {'+'.join(classes)} "
                                f"residual test ({found}; class tolerance {CLASS_TOL:g})")


# -- zero-degree case ---------------------------------------------------------

def solve_chern_zero(gm: GridMetric, tol: float | None = None) -> SolverReport:
    """Mean-zero least-squares solution of lap_C f = S_C2(omega).

    Requires |Gamma^2| below ZERO_DEGREE_TOL (the zero-degree case); reports
    the conformally transformed curvature field e^{-f}(S - lap f) and its
    sup-deviation from zero.  The reported residual is the achieved
    least-squares residual, which is discretization-limited; a `tol` makes
    an l2 residual above it a hard failure.
    """
    _require(gm, "Gauduchon")
    g2 = gauduchon_degrees(gm)[1]
    if abs(g2) > ZERO_DEGREE_TOL:
        raise PreconditionError(
            f"second Gauduchon degree {g2:.3e} is not compatible with the "
            "zero-degree problem")
    s_field = gm.scalar_fields()["s_c2"]
    f, lap_f = lstsq_mean_zero(_LaplacianOp(gm), s_field)
    resid = lap_f - s_field
    l2 = float(np.sqrt(integrate(gm, resid ** 2)))
    if tol is not None and not l2 <= tol:
        raise ConvergenceError(f"zero-degree residual l2 = {l2:.3e} > {tol}")
    achieved = _conformal_s2(gm, s_field, f, lap_f)
    return SolverReport(
        solution=TorusField(gm.grid, f), lam=0.0,
        residual_linf=float(np.max(np.abs(resid))), residual_l2=l2,
        extras={"sup_dev_from_zero": float(np.max(np.abs(achieved))),
                "gamma2": g2})


# -- negative-degree case -----------------------------------------------------

def normalize_to_negative(gm: GridMetric):
    """First stage of the negative case: e^u omega with pointwise-negative S_C2.

    u solves lap_C u = S_C2 - Gamma^2/Vol (mean zero) only to NORMALIZE_TOL;
    any u with negative S_C2(e^u omega) serves.  The curvature field of
    e^u omega comes from the conformal law at t = 0, with the lap u of the
    least-squares solve, and is checked for strict negativity on every node.
    Returns (u, grid metric of e^u omega, Gamma^2/Vol, that field).
    """
    _require(gm, "Gauduchon")
    g2 = gauduchon_degrees(gm)[1]
    lam = g2 / gm.volume()
    # quadrature noise makes an exact >= 0 test meaningless; require the
    # degree to be negative beyond noise level
    if g2 >= -1e-8:
        raise PreconditionError(
            f"second Gauduchon degree {g2:.3e} is not negative")
    s_field = gm.scalar_fields()["s_c2"]
    u, lap_u = lstsq_mean_zero(_LaplacianOp(gm), s_field - lam, tol=NORMALIZE_TOL)
    gm_neg = gm.conformal(u)
    s_neg = _conformal_s2(gm, s_field, u, lap_u)
    if np.max(s_neg) >= 0:
        raise ConvergenceError(
            f"normalized curvature fails pointwise negativity "
            f"(max {np.max(s_neg):.3e}); refine the grid")
    return TorusField(gm.grid, u), gm_neg, lam, s_neg


LEMMA_BOUND_SLACK = (1e-2, 1e-6)  # relative to ||f||_inf, absolute


def _check_apriori_bound(f: np.ndarray, s_field: np.ndarray, lam: float):
    slack = LEMMA_BOUND_SLACK[0] * float(np.max(np.abs(f))) + LEMMA_BOUND_SLACK[1]
    upper = np.log(1.0 + float(np.min(s_field)) / lam)
    lo, hi = float(np.min(f)), float(np.max(f))
    if lo < -slack or hi > upper + slack:
        raise ConvergenceError(
            f"a-priori bound violated beyond slack: f in [{lo:.3e}, {hi:.3e}], "
            f"admissible [0, {upper:.3e}] + {slack:.1e} (discretization trouble)")


def continuity_solve(gm: GridMetric, s_field: np.ndarray, lam: float):
    """Continuity method for lap_C f = -lam e^f + S along a: 0 -> 1.

    F(a, f) = lap_C f - a S + lam e^f - lam (1 - a); the a = 0 problem has
    the exact solution f = 0, where the path starts without a solve.  Step
    control: try a = 1 first, halve when a Newton solve fails (residual
    non-finite or growing), double up to 1 after two consecutive successes,
    floor 1e-4.  Every accepted f is checked against the a-priori bound.
    Returns f and the path, one (a, newton_iters, residual) entry per
    accepted a, the exact entry (0.0, 0, 0.0) first.
    """
    if lam >= 0:
        raise PreconditionError("continuity method requires lam < 0")
    op = _LaplacianOp(gm)
    f = np.zeros(gm.grid.shape)
    trace = [(0.0, 0, 0.0)]

    def F(a, f):
        return complex_laplacian(gm, f) - a * s_field + lam * np.exp(f) - lam * (1 - a)

    def newton(a, f):
        rn_old = np.inf
        for it in range(NEWTON_MAX):
            r = F(a, f)
            rn = float(np.max(np.abs(r)))
            if not (np.isfinite(rn) and rn <= rn_old):
                raise ConvergenceError(
                    f"Newton residual {rn:.3e} at a={a} after {rn_old:.3e}")
            if rn < NEWTON_TOL:
                return f, rn, it
            # Eisenstat-Walker forcing, no tighter than the final gate needs
            eta = 0.1 if it == 0 else max(
                1e-13, min(0.1, 0.9 * (rn / rn_old) ** 2), 0.5 * NEWTON_TOL / rn)
            ef = lam * np.exp(f)
            shift = float(np.mean(ef))
            w, _ = bicgstab(lambda v: complex_laplacian(gm, v) + ef * v, -r,
                            lambda v: op.precondition(v, shift=shift), tol=eta)
            f = f + w
            rn_old = rn
        raise ConvergenceError(f"Newton stalled at a={a} (residual {rn:.3e})")

    a, da, streak = 0.0, 1.0, 0
    while a < 1.0 - 1e-14:
        a_try = min(1.0, a + da)
        try:
            f_new, rn, iters = newton(a_try, f.copy())
        except ConvergenceError:
            da *= 0.5
            streak = 0
            if da < 1e-4:
                raise ConvergenceError(
                    f"continuity step collapsed below 1e-4 at a={a}")
            continue
        f = f_new
        a = a_try
        _check_apriori_bound(f, s_field, lam)
        trace.append((a, iters, rn))
        streak += 1
        if streak >= 2:
            da = min(2 * da, 1.0)
            streak = 0
    return f, trace


def solve_chern_negative(gm: GridMetric, tol: float | None = None) -> SolverReport:
    """Negative-degree constant-curvature metric via the continuity method.

    Normalizes to e^u omega, then runs the continuity path for f on it.  The
    solution is F = u + f, the log of the conformal factor from omega: for
    lam < 0 e^F omega is unique, so F does not move with the normalizer's
    stop point.  The achieved constant is Gamma^2/Vol; the residuals and the
    curvature field with its sup-deviation from lam are those of f on e^u omega.
    A `tol` makes a sup residual above it a hard failure.
    """
    u, gm_neg, lam, s_field = normalize_to_negative(gm)
    f, trace = continuity_solve(gm_neg, s_field, lam)
    lap_f = complex_laplacian(gm_neg, f)
    resid = lap_f + lam * np.exp(f) - s_field
    linf = float(np.max(np.abs(resid)))
    if tol is not None and not linf <= tol:
        raise ConvergenceError(f"final residual {linf:.3e} > tol {tol:g}")
    achieved = _conformal_s2(gm_neg, s_field, f, lap_f)
    return SolverReport(
        solution=TorusField(gm.grid, u.values + f), lam=lam, residual_linf=linf,
        residual_l2=float(np.sqrt(integrate(gm_neg, resid ** 2))),
        path_trace=trace,
        extras={"sup_dev_from_lam": float(np.max(np.abs(achieved - lam))),
                "achieved_mean": float(integrate(gm_neg, achieved)
                                       / gm_neg.volume())})


# -- Bismut-Yamabe minimizer ----------------------------------------------------

def _grad_energy_norm(op: _LaplacianOp, phi: np.ndarray):
    """Dirichlet energy -sum_nodes w phi lap_C phi and a callable for its gradient.

    On balanced metrics (tau = 0) int |del phi|^2 = -int phi lap_C phi, so this
    is the discrete ||del phi||^2.  The gradient in the nodal values is
    -(w lap_C phi + lap_C^T (w phi)); the callable applies the transpose, so a
    caller that reads the energy alone skips it.
    """
    w = op.gm.weights()
    lap = complex_laplacian(op.gm, phi)
    return (-float(np.sum(w * phi * lap)),
            lambda: -(w * lap + op.apply_transpose(w * phi)))


def bismut_yamabe_minimize(gm: GridMetric, tol: float = 1e-8) -> SolverReport:
    """Minimize the constrained quotient for constant second Bismut curvature.

    On the constraint set N1 int phi^q = 1, the quotient equals
    U(phi) = ||del phi||^2 + N1 int S_B2 phi^2, discretized once as
    U_h(phi) = -<phi, lap_C phi>_w + N1 <S_B2 phi, phi>_w.  Projected Sobolev
    (H1) gradient descent with Armijo backtracking minimizes U_h (steps that
    lose positivity are rejected and halved, and backtracking stops once the
    first-order decrease is below the stall test's).  The descent steps along
    (1 - lap)^{-1} grad U_h / 2w with the flat Laplacian symbol as lap: in that
    metric every Fourier mode moves at its own rate, so the step does not
    shrink with the stiffest grid mode and the iteration count does not grow
    with N.  Newton steps on the Euler-Lagrange system of the same U_h,
    grad U_h(phi) / 2w = N1 mu phi^{q-1} with mu = U_h(phi) and q = N2, then
    polish phi for as long as each at least halves its residual (below that a
    step only dithers at the rounding floor), and tol gates that residual.
    N1 = B/A^2 and N2 = 2 + A/B with (A, B) = law_coefficients(n, 1); the
    report also carries f = (A/B) log phi and the sup-deviation of the
    transformed Bismut curvature from mu.
    """
    _require(gm, "balanced")
    a, b = law_coefficients(gm.n, 1.0)
    N1, q = b / a ** 2, 2 + a / b  # q = N2, inside (2, 2n/(n-1)) for every n
    w = gm.weights()
    s_field = gm.scalar_fields()["s_b2"]
    op = _LaplacianOp(gm)

    def project(phi):
        mass = N1 * float(np.sum(w * np.maximum(phi, 0.0) ** q))
        return phi * mass ** (-1.0 / q)

    def objective(phi):
        """U(phi) from one energy evaluation, and a callable for grad U(phi)."""
        e, grad = _grad_energy_norm(op, phi)
        return (e + N1 * float(np.sum(w * s_field * phi ** 2)),
                lambda: grad() + 2 * N1 * w * s_field * phi)

    # Sobolev (H1) gradient sg = (1 - lap)^{-1} g / (2 mean(w)), with the flat
    # symbol (<= 0) as lap, so the stiffest grid mode no longer sets the step
    w_mean = float(np.mean(w))

    # energy is U(phi) and g is grad U(phi) throughout, the gradient taken at
    # the start and after each accepted step only
    phi = project(np.ones(gm.grid.shape))
    energy, grad = objective(phi)
    g = grad()
    mu_upper_exact = energy  # = Y_q(1), exact discrete value
    trace = [(0, energy, 0.0)]
    step = 1.0
    for it in range(1, PGD_MAX + 1):
        sg = -op.precondition(g / (2 * w_mean), shift=-1.0)
        gsg = float(np.sum(g * sg))
        if gsg < 1e-28:
            break
        accepted = False
        while step > 1e-12 and step * gsg > 1e-14 * max(1.0, abs(energy)):
            cand = phi - step * sg
            if np.min(cand) <= 0:
                step *= 0.5
                continue
            cand = project(cand)
            e_new, grad = objective(cand)
            if e_new <= energy - 1e-6 * step * gsg:
                phi, energy, g = cand, e_new, grad()
                accepted = True
                step *= 1.6
                break
            step *= 0.5
        defect = abs(N1 * float(np.sum(w * phi ** q)) - 1.0)
        trace.append((it, energy, defect))
        if not accepted:
            break
        if len(trace) > 6 and trace[-6][1] - energy < 1e-14 * max(1.0, abs(energy)):
            break  # stalled; the Euler-Lagrange polish finishes the job

    # Euler-Lagrange polish: grad U(phi) / 2w - N1 U(phi) phi^{q-1} = 0 at fixed
    # constraint.  Newton steps continue while each halves the residual.
    def el_residual(phi, mu, g):
        r = g / (2 * w) - N1 * mu * phi ** (q - 1)
        return r, float(np.sqrt(integrate(gm, r ** 2)))

    r, rnorm = el_residual(phi, energy, g)
    for _ in range(40):
        if rnorm == 0.0:
            break  # an exact solution leaves nothing to polish
        coef = N1 * s_field - N1 * energy * (q - 1) * phi ** (q - 2)
        shift = -float(np.mean(coef))

        try:
            delta, _ = bicgstab(lambda v: -complex_laplacian(gm, v) + coef * v, -r,
                                lambda v: -op.precondition(v, shift=shift),
                                tol=EL_KRYLOV_TOL)
        except ConvergenceError:
            break
        cand = phi + delta
        if np.min(cand) <= 0:
            break
        cand = project(cand)
        e_new, grad = objective(cand)
        if e_new > energy + 1e-12 * max(1.0, abs(energy)):
            break
        r_new, rn_new = el_residual(cand, e_new, grad())
        if not rn_new < 0.5 * rnorm:
            break
        phi, energy, r, rnorm = cand, e_new, r_new, rn_new
    mu = energy
    if not rnorm <= tol:
        raise ConvergenceError(f"Euler-Lagrange residual {rnorm:.3e} > {tol}")
    if np.min(phi) <= 0:
        raise ConvergenceError("minimizer lost strict positivity")

    vol = gm.volume()
    mu_upper_raw = N1 ** (1 - 2 / q) * integrate(gm, s_field)
    smin = float(np.min(s_field))
    mu_lower = (N1 ** (1 - 2 / q) * smin * vol ** (1 - 2 / q)
                if smin < 0 else 0.0)
    f = a / b * np.log(phi)
    s_new = _conformal_s2(gm, s_field, f, complex_laplacian(gm, f), 1.0)
    rep = SolverReport(
        solution=TorusField(gm.grid, phi), lam=mu,
        residual_linf=float(np.max(np.abs(r))), residual_l2=rnorm,
        energy_trace=trace,
        extras={"mu": mu, "q": q, "N1": N1, "N2": q,
                "mu_upper_exact": mu_upper_exact,
                "mu_upper_unnormalized": mu_upper_raw,
                "mu_lower": mu_lower,
                "constraint_defect": abs(N1 * float(np.sum(w * phi ** q)) - 1.0),
                "f": TorusField(gm.grid, f),
                "sup_dev_from_mu": float(np.max(np.abs(s_new - mu))),
                "min_phi": float(np.min(phi))})
    if not (mu <= mu_upper_exact + 1e-8 * max(1.0, abs(mu_upper_exact))):
        raise ConvergenceError("minimum exceeds the constant-candidate bound")
    if smin < 0 and mu < mu_lower - 1e-8 * max(1.0, abs(mu_lower)):
        raise ConvergenceError("minimum violates the coercivity lower bound")
    return rep


# -- Einstein-type constancy check ----------------------------------------------

def lozenge_constancy_check(gm: GridMetric) -> dict:
    """Evaluate the linear operator n lap_C f + 2 Re<i del f, delbar* omega>
    on f = (2/n) S_C2 and report the Einstein residual and curvature variance.

    When the Einstein residual is below EINSTEIN_TOL the check asserts that the
    second Chern scalar curvature is constant within CONSTANCY_TOL; otherwise
    constancy is reported but not asserted.
    """
    _require(gm, "Gauduchon", "pluriclosed")
    n = gm.n
    s2 = gm.scalar_fields()["s_c2"]
    f_hat = 2.0 * s2 / n
    lap = complex_laplacian(gm, f_hat)
    df = np.stack([dz(f_hat, i, gm.grid) for i in range(n)])
    # Re<del f, tau> = -Re kappa, the pairing of the conformal law
    lozenge = n * lap - 2 * torsion_pairing(gm.jet, gm.traces.tau, df).real
    ein = einstein_residual(gm.jet, gm.traces)
    ein_max = float(np.max(ein.residual))
    mean = integrate(gm, s2) / gm.volume()
    variance = integrate(gm, (s2 - mean) ** 2) / gm.volume()
    out = {
        "lozenge_sup": float(np.max(np.abs(lozenge))),
        "einstein_residual_max": ein_max,
        "einstein_cross_defect_max": float(np.max(ein.cross_defect)),
        "s_c2_mean": float(mean),
        "s_c2_variance": float(variance),
        "einstein_holds": ein_max < EINSTEIN_TOL,
        "constant_asserted": False,
    }
    if out["einstein_holds"]:
        if variance > CONSTANCY_TOL:
            raise ConvergenceError(
                f"Einstein residual vanishes but S_C2 variance {variance:.3e} "
                "exceeds tolerance; discretization inconsistency")
        out["constant_asserted"] = True
    return out
