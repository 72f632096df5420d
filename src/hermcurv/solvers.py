"""Constant-second-scalar-curvature solvers on periodic grid metrics.

Three problems, each returning a SolverReport with residual certificates:

* zero degree:     lap_C f = S_C2(omega),  f mean-zero least squares
* negative degree: continuity method in a for
                   F(a, f) = lap_C f - a S + lam e^f - lam (1 - a) = 0,
                   with Newton corrections D w = lap_C w + lam e^f w
* Bismut-Yamabe:   projected gradient descent on the Rayleigh-type quotient
                   Y_q over positive fields with sum(phi^q) constrained

The discrete complex Laplacian is not symmetric, so the zero-degree case is
solved as normal-equations least squares with a mean-zero constraint and
the Newton systems by BiCGStab; both are preconditioned with the Fourier
symbol of the flat-coefficient operator, which keeps iteration counts flat
in N on these desk-scale problems.  That symbol is real and even, so the
preconditioner is a real FFT (`rfftn`/`irfftn`) times the half-spectrum of
its masked inverse power, cached for the last (shift, power).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conformal import bismut_s2_transform, torsion_pairing
from .curvature import einstein_residual
from .grid import (GridMetric, TorusField, complex_laplacian, dz,
                   factor_jet_from_field, gauduchon_degrees, integrate)

__all__ = ["SolverReport", "YamabeConstants", "PreconditionError",
           "ConvergenceError", "solve_chern_zero", "normalize_to_negative",
           "solve_chern_negative", "continuity_solve",
           "bismut_yamabe_minimize", "lozenge_constancy_check"]

# Solver settings.  Every problem runs with these values from every caller.
ZERO_DEGREE_TOL = 1e-5      # |Gamma^2| accepted as the zero-degree case
NORMALIZE_TOL = 1e-10       # least-squares tolerance of the normalization stage
NEWTON_TOL = 1e-10          # sup residual ending each continuity Newton solve
NEWTON_MAX = 50
NEWTON_KRYLOV_TOL = 1e-13   # BiCGStab tolerance of a continuity Newton step
EL_KRYLOV_TOL = 1e-12       # BiCGStab tolerance of an Euler-Lagrange step
LSTSQ_MAXIT = 400
BICGSTAB_MAXIT = 500
PGD_MAX = 300
BALANCED_TOL = 1e-7         # torsion-trace sup accepted as balanced
LOZENGE_PRECOND_TOL = 1e-6  # Gauduchon and pluriclosed residuals
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


@dataclass(frozen=True)
class YamabeConstants:
    n: int

    @property
    def N1(self) -> float:
        return (self.n ** 2 - 1) / (2 * self.n - 1) ** 2

    @property
    def N2(self) -> float:
        return 2 + (2 * self.n - 1) / (self.n ** 2 - 1)

    def check_exponent(self, q: float) -> float:
        hi = 2 * self.n / (self.n - 1)
        if not 2 < q < hi:
            raise PreconditionError(f"exponent q={q} outside (2, {hi})")
        return float(q)


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

    def apply(self, f: np.ndarray) -> np.ndarray:
        return complex_laplacian(self.gm, f)

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


def lstsq_mean_zero(op: _LaplacianOp, rhs: np.ndarray, tol: float = 1e-12):
    """CG on the normal equations for min ||lap f - rhs||, f mean-zero.

    Preconditioned with the squared flat symbol; returns (f, linf_residual).
    """
    b = _mean_zero(op.apply_transpose(rhs))
    f = np.zeros_like(rhs)
    if np.max(np.abs(b)) < 1e-300:
        return f, float(np.max(np.abs(rhs)))
    r = b.copy()
    z = _mean_zero(op.precondition(r, power=2))
    p = z.copy()
    rz = float(np.sum(r * z))
    scale = max(float(np.max(np.abs(b))), 1e-30)
    for it in range(LSTSQ_MAXIT):
        ap = _mean_zero(op.apply_transpose(op.apply(p)))
        alpha = rz / float(np.sum(p * ap))
        f += alpha * p
        r -= alpha * ap
        if np.max(np.abs(r)) < tol * scale:
            break
        z = _mean_zero(op.precondition(r, power=2))
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise ConvergenceError("least-squares CG stagnated on the zero-degree "
                               f"problem (residual {np.max(np.abs(r)):.3e})")
    f = _mean_zero(f)
    resid = op.apply(f) - rhs
    return f, float(np.max(np.abs(resid)))


def bicgstab(apply_op, b: np.ndarray, precond, tol: float):
    """Textbook preconditioned BiCGStab on real grid fields."""
    x = np.zeros_like(b)
    r = b.copy()
    rhat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    bnorm = max(float(np.max(np.abs(b))), 1e-300)
    for it in range(BICGSTAB_MAXIT):
        rho_new = float(np.sum(rhat * r))
        if abs(rho_new) < 1e-300:
            break
        beta = (rho_new / rho) * (alpha / omega) if it else 0.0
        p = r + beta * (p - omega * v) if it else r.copy()
        phat = precond(p)
        v = apply_op(phat)
        alpha = rho_new / float(np.sum(rhat * v))
        s = r - alpha * v
        x = x + alpha * phat
        if np.max(np.abs(s)) < tol * bnorm:
            return x, float(np.max(np.abs(s)))
        shat = precond(s)
        t = apply_op(shat)
        tt = float(np.sum(t * t))
        omega = float(np.sum(t * s)) / tt if tt > 0 else 0.0
        x = x + omega * shat
        r = s - omega * t
        if np.max(np.abs(r)) < tol * bnorm:
            return x, float(np.max(np.abs(r)))
        rho = rho_new
    raise ConvergenceError(f"BiCGStab stagnated (residual {np.max(np.abs(r)):.3e})")


# -- zero-degree case ---------------------------------------------------------

def _second_degree(gm: GridMetric) -> float:
    """Gamma^2 of a metric that passes the Gauduchon residual test."""
    _, g2, warn = gauduchon_degrees(gm)
    if warn:
        raise PreconditionError("input metric fails the Gauduchon residual test")
    return g2


def solve_chern_zero(gm: GridMetric,
                     resid_tol: float | None = None) -> SolverReport:
    """Mean-zero least-squares solution of lap_C f = S_C2(omega).

    Requires |Gamma^2| below ZERO_DEGREE_TOL (the zero-degree case); reports
    the conformally transformed curvature field e^{-f}(S - lap f) and its
    sup-deviation from zero.  The reported residual is the achieved
    least-squares residual, which is discretization-limited; pass
    `resid_tol` to make an excess a hard failure.
    """
    g2 = _second_degree(gm)
    if abs(g2) > ZERO_DEGREE_TOL:
        raise PreconditionError(
            f"second Gauduchon degree {g2:.3e} is not compatible with the "
            "zero-degree problem")
    s_field = gm.scalar_fields()["s_c2"]
    op = _LaplacianOp(gm)
    f, linf = lstsq_mean_zero(op, s_field)
    lap_f = op.apply(f)
    resid = lap_f - s_field
    l2 = float(np.sqrt(integrate(gm, resid ** 2)))
    if resid_tol is not None and l2 > resid_tol:
        raise ConvergenceError(f"zero-degree residual l2 = {l2:.3e} > {resid_tol}")
    achieved = np.exp(-f) * (s_field - lap_f)
    return SolverReport(
        solution=TorusField(gm.grid, f), lam=0.0,
        residual_linf=linf, residual_l2=l2,
        extras={"sup_dev_from_zero": float(np.max(np.abs(achieved))),
                "gamma2": g2})


# -- negative-degree case -----------------------------------------------------

def normalize_to_negative(gm: GridMetric):
    """First stage of the negative case: e^u omega with pointwise-negative S_C2.

    u solves lap_C u = S_C2 - Gamma^2/Vol (mean zero); the output metric's
    curvature field is checked for strict negativity on every node.
    """
    g2 = _second_degree(gm)
    lam = g2 / gm.volume()
    # quadrature noise makes an exact >= 0 test meaningless; require the
    # degree to be negative beyond noise level
    if g2 >= -1e-8:
        raise PreconditionError(
            f"second Gauduchon degree {g2:.3e} is not negative")
    s_field = gm.scalar_fields()["s_c2"]
    op = _LaplacianOp(gm)
    u, _ = lstsq_mean_zero(op, s_field - lam, tol=NORMALIZE_TOL)
    gm_neg = gm.conformal(u)
    s_neg = gm_neg.scalar_fields()["s_c2"]
    if np.max(s_neg) >= 0:
        raise ConvergenceError(
            f"normalized curvature fails pointwise negativity "
            f"(max {np.max(s_neg):.3e}); refine the grid")
    return TorusField(gm.grid, u), gm_neg, lam


LEMMA_BOUND_SLACK = (1e-2, 1e-6)  # relative to ||f||_inf, absolute


def _check_apriori_bound(f: np.ndarray, s_field: np.ndarray, lam: float):
    slack = LEMMA_BOUND_SLACK[0] * float(np.max(np.abs(f))) + LEMMA_BOUND_SLACK[1]
    upper = np.log(1.0 + float(np.min(s_field)) / lam)
    lo = float(np.min(f))
    hi = float(np.max(f))
    if lo < -slack or hi > upper + slack:
        raise ConvergenceError(
            f"a-priori bound violated beyond slack: f in [{lo:.3e}, {hi:.3e}], "
            f"admissible [0, {upper:.3e}] + {slack:.1e} (discretization trouble)")


def continuity_solve(gm: GridMetric, s_field: np.ndarray, lam: float,
                     f0: np.ndarray | None = None, check_bound: bool = True):
    """Continuity method for lap_C f = -lam e^f + S along a: 0 -> 1.

    F(a, f) = lap_C f - a S + lam e^f - lam (1 - a); the a = 0 problem has
    the exact solution f = 0.  Step control: start 0.1, halve on Newton
    failure, double after two consecutive successes, floor 1e-4.
    """
    if lam >= 0:
        raise PreconditionError("continuity method requires lam < 0")
    op = _LaplacianOp(gm)
    f = np.zeros(gm.grid.shape) if f0 is None else np.asarray(f0, float).copy()
    trace = []

    def F(a, f):
        return op.apply(f) - a * s_field + lam * np.exp(f) - lam * (1 - a)

    def newton(a, f):
        for it in range(NEWTON_MAX):
            r = F(a, f)
            rn = float(np.max(np.abs(r)))
            if rn < NEWTON_TOL:
                return f, rn, it
            ef = lam * np.exp(f)
            shift = float(np.mean(ef))

            def apply_d(w):
                return op.apply(w) + ef * w

            def prec(v):
                return op.precondition(v, shift=shift)

            w, _ = bicgstab(apply_d, -r, prec, tol=NEWTON_KRYLOV_TOL)
            f = f + w
        raise ConvergenceError(f"Newton stalled at a={a} (residual {rn:.3e})")

    a = 0.0
    da = 0.1
    streak = 0
    f, rn, _ = newton(0.0, f)
    trace.append((0.0, 0, rn))
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
        if check_bound:
            _check_apriori_bound(f, s_field, lam)
        trace.append((a, iters, rn))
        streak += 1
        if streak >= 2:
            da = min(2 * da, 0.5)
            streak = 0
    return f, trace


def solve_chern_negative(gm: GridMetric) -> SolverReport:
    """Negative-degree constant-curvature metric via the continuity method.

    Runs the normalization stage, then the continuity path; the achieved
    constant is Gamma^2/Vol and the final metric's curvature field is
    reported along with its sup-deviation from that constant.
    """
    u, gm_neg, lam = normalize_to_negative(gm)
    s_field = gm_neg.scalar_fields()["s_c2"]
    f, trace = continuity_solve(gm_neg, s_field, lam)
    lap_f = complex_laplacian(gm_neg, f)
    resid = lap_f + lam * np.exp(f) - s_field
    achieved = np.exp(-f) * (s_field - lap_f)
    return SolverReport(
        solution=TorusField(gm_neg.grid, f), lam=lam,
        residual_linf=float(np.max(np.abs(resid))),
        residual_l2=float(np.sqrt(integrate(gm_neg, resid ** 2))),
        path_trace=trace,
        extras={"normalizer": u,
                "sup_dev_from_lam": float(np.max(np.abs(achieved - lam))),
                "achieved_mean": float(integrate(gm_neg, achieved)
                                       / gm_neg.volume())})


# -- Bismut-Yamabe minimizer ----------------------------------------------------

def _grad_energy_norm(gm: GridMetric, phi: np.ndarray):
    """Dirichlet energy ||del phi||^2 and its nodal gradient.

    With M_i = dz_i phi and c_i = w sum_j h^{i jbar} conj(M_j), the gradient
    of sum_nodes w h^{i jbar} M_i conj(M_j) with respect to the (real) nodal
    values is -2 Re sum_i dz_i(c_i), using that the centered and spectral
    first-difference matrices are antisymmetric.
    """
    n = gm.n
    w = gm.weights()
    m = [dz(phi, i, gm.grid) for i in range(n)]
    density = np.zeros(gm.grid.shape)
    c = []
    for i in range(n):
        acc = np.zeros(gm.grid.shape, complex)
        for j in range(n):
            acc += gm.ginv[..., i, j] * np.conj(m[j])
        c.append(w * acc)
        density += (m[i] * acc).real
    energy = float(np.sum(w * density))
    grad = np.zeros(gm.grid.shape)
    for i in range(n):
        grad -= 2 * dz(c[i], i, gm.grid).real
    return energy, grad


def bismut_yamabe_minimize(gm: GridMetric, el_tol: float = 1e-8) -> SolverReport:
    """Minimize the constrained quotient for constant second Bismut curvature.

    On the constraint set N1 int phi^q = 1, the quotient equals
    U(phi) = ||del phi||^2 + N1 int S_B2 phi^2, which is minimized by
    projected gradient descent with Armijo backtracking (steps that lose
    positivity are rejected and halved), then polished by Newton steps on
    the Euler-Lagrange system box(phi) = N1 mu phi^{q-1}, with q = N2.  The
    report also carries f = ((2n-1)/(n^2-1)) log phi and the sup-deviation
    of the transformed Bismut curvature from mu.
    """
    tau_sup = float(np.max(np.abs(gm.tau())))
    if tau_sup > BALANCED_TOL:
        raise PreconditionError(
            f"metric is not balanced at tolerance (torsion trace sup "
            f"{tau_sup:.3e} > {BALANCED_TOL:.1e})")
    yc = YamabeConstants(gm.n)
    q = yc.check_exponent(yc.N2)
    N1 = yc.N1
    w = gm.weights()
    s_field = gm.scalar_fields()["s_b2"]

    def project(phi):
        mass = N1 * float(np.sum(w * np.maximum(phi, 0.0) ** q))
        return phi * mass ** (-1.0 / q)

    def objective(phi):
        """(U(phi), grad U(phi)) from one energy evaluation."""
        e, g = _grad_energy_norm(gm, phi)
        return (e + N1 * float(np.sum(w * s_field * phi ** 2)),
                g + 2 * N1 * w * s_field * phi)

    # energy is U(phi) throughout, and g is grad U(phi) during the descent
    phi = project(np.ones(gm.grid.shape))
    energy, g = objective(phi)
    mu_upper_exact = energy  # = Y_q(1), exact discrete value
    trace = [(0, energy, 0.0)]
    step = 1.0
    for it in range(1, PGD_MAX + 1):
        gg = float(np.sum(g * g))
        if gg < 1e-28:
            break
        accepted = False
        while step > 1e-12:
            cand = phi - step * g
            if np.min(cand) <= 0:
                step *= 0.5
                continue
            cand = project(cand)
            e_new, g_new = objective(cand)
            if e_new <= energy - 1e-6 * step * gg:
                phi, energy, g = cand, e_new, g_new
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

    # Euler-Lagrange polish: box(phi) - N1 mu phi^{q-1} = 0 at fixed constraint
    def el_residual(phi, mu):
        box = -complex_laplacian(gm, phi) + N1 * s_field * phi
        return box - N1 * mu * phi ** (q - 1)

    op = _LaplacianOp(gm)
    for _ in range(40):
        mu = energy
        r = el_residual(phi, mu)
        rnorm = float(np.sqrt(integrate(gm, r ** 2)))
        if rnorm < el_tol:
            break
        coef = N1 * s_field - N1 * mu * (q - 1) * phi ** (q - 2)
        shift = -float(np.mean(coef))

        def apply_j(v):
            return -complex_laplacian(gm, v) + coef * v

        def prec(v):
            return -op.precondition(v, shift=shift)

        try:
            delta, _ = bicgstab(apply_j, -r, prec, tol=EL_KRYLOV_TOL)
        except ConvergenceError:
            break
        cand = phi + delta
        if np.min(cand) <= 0:
            break
        cand = project(cand)
        e_new, _ = objective(cand)
        if e_new > energy + 1e-12 * max(1.0, abs(energy)):
            break
        phi, energy = cand, e_new
    mu = energy
    r = el_residual(phi, mu)
    rnorm = float(np.sqrt(integrate(gm, r ** 2)))
    if rnorm > el_tol:
        raise ConvergenceError(f"Euler-Lagrange residual {rnorm:.3e} > {el_tol}")
    if np.min(phi) <= 0:
        raise ConvergenceError("minimizer lost strict positivity")

    vol = gm.volume()
    mu_upper_raw = N1 ** (1 - 2 / q) * integrate(gm, s_field)
    smin = float(np.min(s_field))
    mu_lower = (N1 ** (1 - 2 / q) * smin * vol ** (1 - 2 / q)
                if smin < 0 else 0.0)
    n = gm.n
    f = (2 * n - 1) / (n * n - 1) * np.log(phi)
    s_new = bismut_s2_transform(gm.jet, factor_jet_from_field(gm.grid, f),
                                s2_base=s_field)
    sup_dev = float(np.max(np.abs(s_new - mu)))
    rep = SolverReport(
        solution=TorusField(gm.grid, phi), lam=mu,
        residual_linf=float(np.max(np.abs(r))), residual_l2=rnorm,
        energy_trace=trace,
        extras={"mu": mu, "q": q, "N1": N1, "N2": yc.N2,
                "mu_upper_exact": mu_upper_exact,
                "mu_upper_unnormalized": mu_upper_raw,
                "mu_lower": mu_lower,
                "constraint_defect": abs(N1 * float(np.sum(w * phi ** q)) - 1.0),
                "f": TorusField(gm.grid, f),
                "sup_dev_from_mu": sup_dev,
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
    res = gm.class_residuals()
    if (res["gauduchon"][1] > LOZENGE_PRECOND_TOL
            or res["pluriclosed"][1] > LOZENGE_PRECOND_TOL):
        raise PreconditionError(
            f"metric is not pluriclosed+Gauduchon at tolerance "
            f"(residuals {res['gauduchon'][1]:.3e}, {res['pluriclosed'][1]:.3e})")
    n = gm.n
    s2 = gm.scalar_fields()["s_c2"]
    f_hat = 2.0 * s2 / n
    lap = complex_laplacian(gm, f_hat)
    df = np.stack([dz(f_hat, i, gm.grid) for i in range(n)], axis=-1)
    # Re<del f, tau> = -Re kappa, the pairing of the conformal law
    lozenge = n * lap - 2 * torsion_pairing(gm.jet, gm.tau(), df).real
    ein = einstein_residual(gm.jet)
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
