"""Monte Carlo enstrophy estimation and numerical bound verification.

Estimates Ens(t) = 0.5 E||omega(t)||^2 over an ensemble of trajectories and
confronts the estimates with the theoretical machinery: the constant-free
trace-class envelope, the fitted global envelopes, the Hoelder regularity
floor of the enstrophy curve, and its small-time asymptotics against the
analytic convolution variance.

Theoretical envelopes with generic constants are handled by a
fit-then-validate protocol: the smallest admissible constant is fitted on a
prefix of the output times (against mean + 3 SE), and the verdict is earned
on the held-out suffix (violated when mean - 3 SE exceeds the envelope). All
statistical comparisons use the 3-standard-error Monte Carlo allowance. The
rules on the settings raise `ParameterError` and need no trace. The envelope
functions take any admissible gamma and mu_tilde; `bound_parameters` derives
the values every run is evaluated at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import EnsembleRecord
from .noise import _BLOCK_VALUES, NoiseSpectrum, companion_law
from .spectral import ParameterError

#: Optimal Poincare constant ||u|| <= c1 ||grad u|| for Dirichlet data on the
#: unit square: c1^2 = 1 / (2 pi^2), from the principal eigenvalue.
DIRICHLET_C1 = 1.0 / (math.pi * math.sqrt(2.0))


@dataclass
class EnstrophyTrace:
    """Time-indexed Monte Carlo estimates of the mean enstrophy.

    `estimate_enstrophy` always attaches the companion series: the empirical
    and analytic halves of E||W_A||^2 (the latter from `companion_law`, at the
    solver's rates lambda_k - r), `wa_half_se`, the exact standard error of an
    n_paths mean of 0.5 ||W_A||^2 under that Gaussian law, and the mean squared
    residual E||omega - W_A||^2 with its standard error. A trace built by hand
    from the first four fields leaves them None, which serves the envelope and
    Hoelder checks but not the writers, `linear_oracle_check` or
    `asymptotics_check` in mode "zero". `wa_half_se` is not written to trace.*.
    """

    times: np.ndarray
    ens_mean: np.ndarray
    ens_se: np.ndarray
    n_paths: int
    wa_half_empirical: np.ndarray | None = None
    wa_half_analytic: np.ndarray | None = None
    wa_half_se: np.ndarray | None = None
    resid_mean: np.ndarray | None = None
    resid_se: np.ndarray | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trace times must be strictly increasing")
        if np.any(self.ens_mean < 0) or np.any(self.ens_se < 0):
            raise ValueError("enstrophy estimates and standard errors must be nonnegative")


@dataclass
class BoundEnvelope:
    """Evaluated envelope values of one bound family, with its parameters."""

    kind: str
    params: dict
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError(f"envelope {self.kind} must be finite and nonnegative")


@dataclass
class BoundReport:
    """Verdict of one envelope check against a Monte Carlo trace."""

    kind: str
    verdict: str  # pass | fail | not_applicable
    envelope: BoundEnvelope | None = None
    violations: list[float] = field(default_factory=list)
    fitted: dict = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self):
        if (self.verdict == "fail") != bool(self.violations):
            raise ValueError("verdict must be 'fail' exactly when violations exist")

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "verdict": self.verdict,
            "violations": [float(t) for t in self.violations],
            "fitted": self.fitted,
            "notes": self.notes,
        }
        if self.envelope is not None:
            out["params"] = self.envelope.params
            out["envelope"] = [float(v) for v in self.envelope.values]
        return out


def estimate_enstrophy(records: list[EnsembleRecord], spectrum: NoiseSpectrum, r: float) -> EnstrophyTrace:
    """Ensemble mean and standard error of 0.5 ||omega(t)||^2, with its companions.

    Each series is reduced where the records hold it, scaled by the power of
    two that brings its max into [0.5, 1) (a half's 0.5 too), so the squares
    of the SE neither overflow nor underflow. The records are folded in path
    order through one reused block whose row 0 holds the running sum, so a
    reduction adds the rows one by one as numpy's `mean(axis=0)` does, and
    the SE folds the squared deviations from that mean as `std(ddof=1)`
    does: the same bits in the normal range. Each fold takes as many
    consecutive records as fit noise._BLOCK_VALUES with the sum row, at
    least one, so a run of many small records pays few numpy calls and a
    wide one holds one batch of working memory. One output time gathers its
    whole column (8 bytes a path), as numpy sums that pairwise. Records that
    name omega_sq alone come from a one-state run, where omega is W_A and U
    is 0: the empirical companion copies the mean, and the residual and its
    SE are 0, the bits a fold of zeros gives. The analytic companion
    0.5 E||W_A(t)||^2 is taken at the rates the solver ran with, lambda_k - r,
    from the spectrum's basis and the Ekman rate r, before the folds, so its
    exp block is freed before the fold block is made.
    """
    n = sum(len(rec.path_index) for rec in records)
    if n < 2:
        raise ValueError("need at least 2 paths for a standard error")
    times, names = records[0].times, records[0].names
    for rec in records[1:]:
        if not np.array_equal(rec.times, times):
            raise ValueError("all records must share the same output times")
        if rec.names != names:
            raise ValueError(f"all records must name the same series, got {names} and {rec.names}")
    # the law is taken at amplitudes scaled by 2^-h, which bring max mu_k^2 into [0.5, 2)
    # so that sum_k s_k^2 neither underflows nor overflows, and scaled back exactly: s_k
    # scales by 2^-2h, and so do the variance and the SE, the root of a sum of squares
    h = int(np.frexp(spectrum.mu_sq.max())[1]) // 2
    scaled = NoiseSpectrum(spectrum.basis, np.ldexp(spectrum.mu, -h), spectrum.theta)
    variance, sum_sq = companion_law(scaled, r, times)

    # the records each fold reduces: consecutive ones while their rows and the sum row
    # fit the budget, one at least, or the whole column at one output time
    n_out, groups, filled = len(times), [], 0
    for rec in records:
        if not groups or n_out > 1 and (filled + len(rec.path_index)) * n_out > _BLOCK_VALUES:
            groups.append([])
            filled = 1
        groups[-1].append(rec)
        filled += len(rec.path_index)
    block = np.empty((1 + max(sum(len(rec.path_index) for rec in g) for g in groups), n_out))
    total, root_n = np.empty(n_out), math.sqrt(n)

    def fold(name: str, e: int, mean: np.ndarray | None = None) -> np.ndarray:
        """Path sum of series `name` scaled by 2^e, or of its squared deviations from `mean`."""
        for i, group in enumerate(groups):
            lo = 1
            for rec in group:
                rows = block[lo:lo + len(rec.path_index)]
                np.ldexp(rec[name], e, out=rows)
                lo += len(rows)
            rows = block[1:lo]
            if mean is not None:
                np.square(np.subtract(rows, mean, out=rows), out=rows)
            np.add.reduce(block[:lo] if i else rows, axis=0, out=total)
            block[0] = total
        return total

    def reduced(name: str, half: bool, se: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Mean and, if `se`, SE over the paths of the series `name`, halved if `half`."""
        # the series are sums of squares, so their largest magnitude is their max
        e = int(np.frexp(np.max([rec[name].max() for rec in records]))[1])
        mean = fold(name, -e - half) / n
        if not se:
            return np.ldexp(mean, e), None
        return np.ldexp(mean, e), np.ldexp(np.sqrt(fold(name, -e - half, mean) / (n - 1)) / root_n, e)

    ens_mean, ens_se = reduced("omega_sq", half=True)
    if names == ("omega_sq",):
        wa_half_empirical, resid_mean, resid_se = ens_mean.copy(), np.zeros(n_out), np.zeros(n_out)
    else:
        wa_half_empirical, _ = reduced("wa_sq", half=True, se=False)
        resid_mean, resid_se = reduced("u_sq", half=False)
    return EnstrophyTrace(
        times=times.copy(),
        ens_mean=ens_mean,
        ens_se=ens_se,
        n_paths=n,
        wa_half_empirical=wa_half_empirical,
        wa_half_analytic=np.ldexp(0.5 * variance, 2 * h),
        # W_k(t) ~ N(0, s_k(t)) independently, so 0.5 ||W_A||^2 has variance 0.5 sum_k s_k^2
        wa_half_se=np.ldexp(np.sqrt(0.5 * sum_sq / n), 2 * h),
        resid_mean=resid_mean,
        resid_se=resid_se,
    )


def _companion(trace: EnstrophyTrace, *names: str) -> list[np.ndarray]:
    """The named companion series of a trace; a hand-built trace without them raises ValueError."""
    series = [getattr(trace, name) for name in names]
    if any(s is None for s in series):
        raise ValueError("the check needs a trace with its analytic companion, as estimate_enstrophy builds")
    return series


def linear_oracle_check(trace: EnstrophyTrace) -> dict:
    """Ens(t) of a linear run from rest against its analytic companion, in exact standard errors.

    z = (ens_mean - wa_half_analytic) / wa_half_se at every output time (0 where
    both are 0, infinite where only the SE is). The run passes when every |z|
    is at most Phi^-1(1 - 0.00135 / n_t): a 3-sigma two-sided level (0.27%)
    shared out over the n_t positive output times.
    """
    oracle, oracle_se = _companion(trace, "wa_half_analytic", "wa_half_se")
    diff = trace.ens_mean - oracle
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(oracle_se > 0, diff / oracle_se, np.where(diff == 0.0, 0.0, np.inf))
    # imported here, as at startup statistics adds 0.5 MB to every command
    from statistics import NormalDist

    z_threshold = NormalDist().inv_cdf(1.0 - 0.00135 / max(1, int(np.sum(trace.times > 0))))
    worst = int(np.argmax(np.abs(z)))
    return {"times": trace.times, "ens_mean": trace.ens_mean, "oracle_half_variance": oracle,
            "oracle_se": oracle_se, "z_scores": z, "z_threshold": z_threshold,
            "worst_time": float(trace.times[worst]), "worst_z": float(z[worst]),
            "verdict": "pass" if np.all(np.abs(z) <= z_threshold) else "fail"}


def gamma_threshold(nu: float, r: float, beta: float) -> float:
    """Admissibility threshold -nu/c1^2 - r + c1*beta for gamma, with c1 = DIRICHLET_C1."""
    return -nu / DIRICHLET_C1**2 - r + DIRICHLET_C1 * beta


def _growth(gamma: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^(2 gamma t) and int_0^t e^(2 gamma tau) dtau (t when gamma = 0).

    Every envelope scales with them, so output times they overflow on are out of
    range for that gamma: the error names the run's horizon T.
    """
    with np.errstate(over="ignore"):
        growth = np.exp(2.0 * gamma * times)
    if not np.all(np.isfinite(growth)):
        raise ParameterError("T", f"makes e^(2 gamma t) overflow by t={times[-1]:g} at gamma={gamma:g}")
    return growth, times.astype(float) if gamma == 0.0 else (growth - 1.0) / (2.0 * gamma)


def bound_parameters(nu: float, r: float, beta: float, mu_exp: float | None,
                     times) -> tuple[float, float, float | None]:
    """The gamma and mu_tilde the bounds are evaluated at, with gamma's threshold.

    gamma = threshold + 0.1, close to the tightest admissible gamma, as every
    envelope grows with gamma; mu_tilde = 0.9 min(mu_exp, 1), inside Theorem
    2(a)'s (0, mu_exp), or None without a positive decay exponent. The envelope
    functions take any admissible value. The envelopes must stay finite on the
    output times, or a ParameterError names T.
    """
    threshold = gamma_threshold(nu, r, beta)
    gamma = threshold + 0.1
    _growth(gamma, np.asarray(times, dtype=float))
    mu_tilde = None if mu_exp is None or mu_exp <= 0 else 0.9 * min(mu_exp, 1.0)
    return gamma, threshold, mu_tilde


def trace_class_envelope(ens0: float, gamma: float, tr_q: float, times) -> BoundEnvelope:
    """Constant-free envelope Ens(0) e^(2 gamma t) + Tr(Q) (e^(2 gamma t)-1)/(4 gamma).

    For gamma < 0 the envelope saturates at -Tr(Q)/(4 gamma). At gamma = 0 the
    limit form Ens(0) + Tr(Q) t / 2 is used and flagged in the parameters.
    """
    times = np.asarray(times, dtype=float)
    if ens0 < 0 or tr_q < 0:
        raise ValueError("Ens(0) and Tr(Q) must be nonnegative")
    if not np.isfinite(tr_q):
        raise ValueError("trace-class envelope needs a finite Tr(Q)")
    growth, integral = _growth(gamma, times)
    values = ens0 * growth + 0.5 * tr_q * integral
    params = {"ens0": ens0, "gamma": gamma, "tr_q": tr_q, "gamma_zero_limit_form": gamma == 0.0}
    if gamma < 0:
        params["long_time_limit"] = -tr_q / (4.0 * gamma)
    return BoundEnvelope("trace_class", params, values)


def theorem2_shape(e_omega0_sq: float, gamma: float, times, mu_tilde: float) -> np.ndarray:
    """Unit-constant envelope shape of the global polynomial-growth bounds of Theorem 2.

    The exponential integral carries the prefactor t^((2 - mu_tilde)/mu_tilde);
    Theorem 2(b) is the shape at mu_tilde = 1, whose power is exactly 1. The
    multiplicative constant is left to the fitting protocol.
    """
    times = np.asarray(times, dtype=float)
    if mu_tilde is None or not mu_tilde > 0.0:
        raise ValueError(f"theorem2_shape needs a positive mu_tilde, got {mu_tilde}")
    power = (2.0 - mu_tilde) / mu_tilde
    growth, integral = _growth(gamma, times)
    # t^power * integral is O(t^(2/mu_tilde)), so it tends to 0 at t = 0 even for the
    # negative power of mu_tilde > 2, where the product evaluates to inf * 0
    with np.errstate(divide="ignore", invalid="ignore"):
        polynomial = times**power * integral
    polynomial[times == 0.0] = 0.0
    return e_omega0_sq * growth + polynomial + 1.0


def validate_bound(trace: EnstrophyTrace, envelope: BoundEnvelope, start: int = 0) -> BoundReport:
    """Check envelope dominance with the 3-standard-error allowance from output `start` on, no fitting."""
    lower = trace.ens_mean[start:] - 3.0 * trace.ens_se[start:]
    bad = lower > envelope.values[start:]
    violations = [float(t) for t in trace.times[start:][bad]]
    return BoundReport(
        kind=envelope.kind,
        verdict="fail" if violations else "pass",
        envelope=envelope,
        violations=violations,
    )


def check_fit_times(times) -> None:
    """The fit protocol needs at least 8 output times."""
    if len(times) < 8:
        raise ParameterError("output_times", f"must number >= 8 for the fit protocol, got {len(times)}")


def fit_and_validate_bound(
    trace: EnstrophyTrace,
    shape_values: np.ndarray,
    kind: str = "fitted",
    params: dict | None = None,
) -> BoundReport:
    """Fit the smallest dominating constant on a prefix, validate on the suffix.

    The constant C is the smallest one with C * shape >= mean + 3 SE on the
    first half of the times (rounded half to even); the verdict is pass when
    mean - 3 SE <= C * shape everywhere on the remainder. Degenerate all-zero
    traces are reported as not applicable.
    """
    shape_values = np.asarray(shape_values, dtype=float)
    check_fit_times(trace.times)
    if np.all(trace.ens_mean == 0.0):
        return BoundReport(kind=kind, verdict="not_applicable", notes="degenerate all-zero trace")

    n_fit = round(len(trace.times) / 2)
    upper = trace.ens_mean + 3.0 * trace.ens_se
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(shape_values > 0, upper / shape_values, np.where(upper > 0, np.inf, 0.0))
    c_fit = float(np.max(ratio[:n_fit]))
    if not np.isfinite(c_fit):
        return BoundReport(kind=kind, verdict="not_applicable", notes="no finite constant dominates the prefix")

    envelope = BoundEnvelope(kind, dict(params or {}, C=c_fit), c_fit * shape_values)
    report = validate_bound(trace, envelope, start=n_fit)
    report.fitted = {"C": c_fit, "n_fit": n_fit}
    return report


def _ols_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float | None]:
    """Least-squares slope of log y vs log x with its standard error (None from 2 points)."""
    lx, ly = np.log(x), np.log(y)
    n = len(lx)
    slope, intercept = np.polyfit(lx, ly, 1)
    if n <= 2:
        return float(slope), None
    resid = ly - (slope * lx + intercept)
    s2 = float(np.sum(resid**2)) / (n - 2)
    se = math.sqrt(s2 / float(np.sum((lx - lx.mean()) ** 2)))
    return float(slope), se


def holder_pairs(times: np.ndarray, window, lags) -> tuple[np.ndarray, np.ndarray, list]:
    """The rule on the increment fit's window and lags, and the time pairs it compares.

    The window [t0, t1] needs 0 < t0 < t1 and 2 output times inside; the lags need
    >= 5 distinct positive values spanning a decade, each realized inside the window.
    Lags within the matching tolerance of 1e-6 h of each other pick the same pairs,
    so they count as a repeat. Returns the window's mask, the sorted lags and per
    lag its (src, dst) windowed indices.
    """
    if len(window) != 2 or not 0.0 < window[0] < window[1]:
        raise ParameterError("window", f"must be [t0, t1] with 0 < t0 < t1, got {list(window)}")
    lags = np.asarray(sorted(lags), dtype=float)
    repeats = lags[1:][np.diff(lags) <= 1e-6 * lags[1:]]
    if repeats.size:
        raise ParameterError("lags", f"must be distinct, got {repeats[0]:g} more than once")
    if len(lags) < 5 or lags[0] <= 0 or lags[-1] / lags[0] < 10.0 - 1e-12:
        raise ParameterError("lags", "must hold >= 5 distinct positive values spanning at least one decade")

    inside = (times >= window[0] - 1e-12) & (times <= window[1] + 1e-12)
    times = times[inside]
    if len(times) < 2:
        raise ParameterError("window", "contains fewer than 2 output times")

    pairs = []
    for h in lags:
        targets = times + h
        j = np.searchsorted(times, targets)
        j = np.clip(j, 0, len(times) - 1)
        ok = np.abs(times[j] - targets) <= 1e-6 * max(h, 1e-300)
        # searchsorted returns the left insertion point; the match may sit one
        # slot earlier for exact grid values
        jm = np.clip(j - 1, 0, len(times) - 1)
        ok_m = np.abs(times[jm] - targets) <= 1e-6 * max(h, 1e-300)
        j = np.where(ok, j, jm)
        ok = ok | ok_m
        if not np.any(ok):
            raise ParameterError("lags", f"include {h:g}, which no output-time pair inside the window realizes")
        pairs.append((np.flatnonzero(ok), j[ok]))
    return inside, lags, pairs


def holder_exponent_fit(trace: EnstrophyTrace, window: tuple[float, float], lags) -> dict:
    """Increment-exponent fit of the enstrophy curve over a time window.

    For each lag h, the maximal |Ens(t+h) - Ens(t)| over pairs inside the
    window is computed; the fitted quantity is the log-log slope of these
    maxima against the lags. Lags whose maximal increment stays below the
    3-standard-error noise floor (combined in quadrature at the maximizing
    pair) are dropped; if fewer than 5 usable lags spanning a decade remain,
    the fit is reported as not applicable. The verdict passes for slopes
    >= 1/4 - 0.05, a one-sided floor: smoother traces pass too.
    """
    inside, lags, pairs = holder_pairs(trace.times, window, lags)
    ens = trace.ens_mean[inside]
    se = trace.ens_se[inside]

    max_inc = np.empty(len(lags))
    floors = np.empty(len(lags))
    for i, (src, dst) in enumerate(pairs):
        inc = np.abs(ens[dst] - ens[src])
        best = int(np.argmax(inc))
        max_inc[i] = inc[best]
        floors[i] = 3.0 * math.hypot(se[src[best]], se[dst[best]])

    usable = max_inc > floors
    result = {
        "window": [float(window[0]), float(window[1])],
        "lags": lags.tolist(),
        "max_increments": max_inc.tolist(),
        "noise_floors": floors.tolist(),
        "usable_lags": int(np.sum(usable)),
    }
    span_ok = usable.sum() >= 5 and lags[usable][-1] / lags[usable][0] >= 10.0 - 1e-12 if usable.any() else False
    if not span_ok:
        result.update({"verdict": "not_applicable", "exponent": None,
                       "notes": "increments below the Monte Carlo noise floor"})
        return result
    slope, slope_se = _ols_loglog(lags[usable], max_inc[usable])
    band = 1.96 * slope_se  # the fit has >= 5 lags, so its SE exists
    result.update({
        "exponent": slope,
        "confidence_band": [slope - band, slope + band],
        "verdict": "pass" if slope >= 0.25 - 0.05 else "fail",
    })
    return result


def check_asymptotics(mode: str, delta: float) -> None:
    """The small-time check runs in mode "zero" or "general", delta in (0, 1)."""
    if mode not in ("zero", "general"):
        raise ParameterError("mode", f"must be 'zero' or 'general', got {mode!r}")
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta", f"must lie in (0, 1), got {delta:g}")


def check_small_times(times) -> None:
    """The small-time check needs at least 3 positive output times."""
    if np.sum(np.asarray(times) > 0) < 3:
        raise ParameterError("output_times", "must include >= 3 positive times for the asymptotics check")


def asymptotics_check(trace: EnstrophyTrace, mode: str, delta: float, ens0: float | None = None,
                      fit_time_limit: float | None = None) -> dict:
    """Small-time behaviour of Ens(t) against the convolution asymptotics.

    mode "general": fits the exponent of |Ens(t) - Ens(0)| and passes when it
    reaches delta/2 - 0.05 (a Galerkin initial condition is a trigonometric
    polynomial, so its Hoelder exponent 1 never lowers the floor min(1, delta/2)).
    With a `fit_time_limit` it fits only the times t <= fit_time_limit and
    reports the limit; fewer than 2 usable times make it not applicable.
    mode "zero": compares Ens(t) with the trace's half analytic E||W_A(t)||^2
    (the solver's rates lambda_k - r) and requires |Ens - companion| <=
    max(0.05 companion, 3 wa_half_se) at the two smallest positive times (the
    companion's exact SE is that of the small-time law omega -> W_A; ratios
    are None where the companion is 0); additionally fits the exponent of the
    residual E||omega - W_A||^2 against the drift-regularity floor
    1/2 - 2 rho - 0.05 at rho = 0.01. ens0 and fit_time_limit are ignored.
    Raises ValueError for a hand-built trace without the companions.
    """
    check_asymptotics(mode, delta)
    check_small_times(trace.times)
    pos = trace.times > 0
    t = trace.times[pos]

    if mode == "general":
        if ens0 is None:
            if trace.times[0] != 0.0:
                raise ValueError("general mode needs ens0 or a trace that starts at t = 0")
            ens0 = float(trace.ens_mean[0])
        dev = np.abs(trace.ens_mean[pos] - ens0)
        se0 = float(trace.ens_se[0]) if trace.times[0] == 0.0 else 0.0
        floor = 3.0 * np.hypot(trace.ens_se[pos], se0)
        usable = dev > floor
        limit = {}
        if fit_time_limit is not None:
            usable &= t <= fit_time_limit
            limit["fit_time_limit"] = fit_time_limit
        if np.sum(usable) < 2:
            notes = "deviations from Ens(0) below Monte Carlo resolution"
            if limit:
                notes = "fewer than 2 times up to fit_time_limit resolve a deviation from Ens(0)"
            return {"mode": mode, "verdict": "not_applicable", **limit, "notes": notes}
        slope, slope_se = _ols_loglog(t[usable], dev[usable])
        threshold = delta / 2.0 - 0.05
        return {"mode": mode, "ens0": ens0, "exponent": slope, "exponent_se": slope_se, **limit,
                "threshold": threshold, "verdict": "pass" if slope >= threshold else "fail"}

    wa_half, wa_se, emp, resid, resid_se = (s[pos] for s in _companion(
        trace, "wa_half_analytic", "wa_half_se", "wa_half_empirical", "resid_mean", "resid_se"))
    ens = trace.ens_mean[pos]
    allowance = np.fmax(0.05 * wa_half[:2], 3.0 * wa_se[:2])
    ratio_ok = bool(np.all(np.abs(ens[:2] - wa_half[:2]) <= allowance))

    def ratios(num, den):  # JSON has no NaN: None where the denominator is 0
        return [a / b if b > 0 else None for a, b in zip(num.tolist(), den.tolist())]

    result = {"mode": mode, "times": t.tolist(), "ratio_analytic": ratios(ens, wa_half),
              "ratio_empirical": ratios(ens, emp), "ratio_ok": ratio_ok,
              "ratio_tolerance": ratios(allowance, wa_half[:2])}

    residual_ok = True
    usable = resid > 3.0 * resid_se
    if np.sum(usable) >= 2:
        slope, slope_se = _ols_loglog(t[usable], resid[usable])
        threshold = 0.5 - 2.0 * 0.01 - 0.05  # 1/2 - 2 rho - 0.05 at rho = 0.01
        residual_ok = slope >= threshold
        result.update({"residual_exponent": slope, "residual_exponent_se": slope_se,
                       "residual_threshold": threshold, "residual_ok": residual_ok})
    else:
        result["residual_notes"] = "residuals below Monte Carlo resolution"
    result["verdict"] = "pass" if ratio_ok and residual_ok else "fail"
    return result
