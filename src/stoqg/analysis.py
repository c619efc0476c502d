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

Each command of the command line is a premise and a verdict here, on a
materialized `config.RunConfig`. `<command>_premise(cfg)` raises
`ParameterError` under its key before any path runs; `<command>_verdict(cfg,
trace)` returns the verdict ("pass", "fail" or "not_applicable"), the
one-line summary, the reports (file name -> JSON payload, or a CSV's
(header, rows)) and extra manifest fields (None but for simulate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import EnsembleRecord
from .noise import NoiseSpectrum, linear_law, phi_alpha, stationary_tail_bound
from .noise import trace as covariance_trace
from .spectral import ParameterError

#: Optimal Poincare constant ||u|| <= c1 ||grad u|| for Dirichlet data on the
#: unit square: c1^2 = 1 / (2 pi^2), from the principal eigenvalue.
DIRICHLET_C1 = 1.0 / (math.pi * math.sqrt(2.0))


@dataclass
class EnstrophyTrace:
    """Time-indexed Monte Carlo estimates of the mean enstrophy.

    `estimate_enstrophy` always attaches the companion series: the empirical
    and analytic halves of E||W_A||^2 (the latter from `linear_law` from rest, at
    the solver's rates lambda_k - r), `wa_half_se`, the exact standard error of
    an n_paths mean of 0.5 ||W_A||^2 under that Gaussian law, and the mean
    squared residual E||omega - W_A||^2 with its standard error. A trace built by
    hand from the first four fields leaves them None, which serves the envelope
    and Hoelder checks and `linear_oracle_check`, but not the writers or
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
        if not (np.all(self.ens_mean >= 0) and np.all(self.ens_se >= 0)):  # NaN fails too
            raise ValueError("enstrophy estimates and standard errors must be nonnegative, not NaN")


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
    of the SE neither overflow nor underflow. The records are folded one at a
    time, in path order, through one reused block of 1 + (largest record)
    rows whose row 0 holds the running sum, so a reduction adds the rows one
    by one as numpy's `mean(axis=0)` does, and the SE folds the squared
    deviations from that mean as `std(ddof=1)` does: the same bits in the
    normal range. One output time gathers its whole column instead (8 bytes
    a path), as numpy sums that pairwise. Records that name omega_sq alone
    come from a one-state run, where omega is W_A and U is 0: the empirical
    companion copies the mean, and the residual and its SE are 0, the bits a
    fold of zeros gives. The analytic companion 0.5 E||W_A(t)||^2 is taken at
    the rates the solver ran with, lambda_k - r, from the spectrum's basis and
    the Ekman rate r, before the folds, so its exp block is freed before the
    fold block is made.
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
    mean, sd = linear_law(spectrum, r, times)

    # one output time gathers its column, which numpy sums pairwise; else each record's
    # rows are added to the running sum in row 0 as they are scaled
    n_out = len(times)
    gather = n_out == 1
    block = np.empty((1 + (n if gather else max(len(rec.path_index) for rec in records)), n_out))
    total, root_n = np.empty(n_out), math.sqrt(n)

    def fold(name: str, e: int, mean: np.ndarray | None = None) -> np.ndarray:
        """Path sum of series `name` scaled by 2^e, or of its squared deviations from `mean`."""
        lo = 1
        for i, rec in enumerate(records):
            rows = block[lo:lo + len(rec.path_index)]
            np.ldexp(rec[name], e, out=rows)
            if mean is not None:
                np.square(np.subtract(rows, mean, out=rows), out=rows)
            if gather:
                lo += len(rows)
            else:
                block[0] = np.add.reduce(block[:1 + len(rows)] if i else rows, axis=0, out=total)
        return np.add.reduce(block[1:lo], axis=0, out=total) if gather else total

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
        wa_half_analytic=0.5 * mean,
        wa_half_se=0.5 * sd / root_n,
        resid_mean=resid_mean,
        resid_se=resid_se,
    )


def linear_oracle_check(trace: EnstrophyTrace, mean: np.ndarray, sd: np.ndarray) -> dict:
    """Ens(t) of a linear run against the law of its squared norm, in exact standard errors.

    `mean` and `sd` are the law of one path's ||a(t)||^2 at the trace's times
    (`noise.linear_law`). The oracle is half the mean, its SE half the SD over
    sqrt(n_paths), and z = (ens_mean - oracle) / oracle_se. Where the law has no
    spread (t = 0 from fixed coefficients, or no noise) the run is deterministic:
    z is 0 where it agrees with the oracle to a relative 1e-9, else infinite. The
    run passes when every |z| is at most Phi^-1(1 - 0.00135 / n_t): a 3-sigma
    two-sided level (0.27%) shared out over the n_t positive output times.
    """
    oracle, oracle_se = 0.5 * mean, 0.5 * sd / math.sqrt(trace.n_paths)
    diff = trace.ens_mean - oracle
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(oracle_se > 0, diff / oracle_se, np.where(np.abs(diff) <= 1e-9 * oracle, 0.0, np.inf))
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
    return growth, times.astype(float) if gamma == 0.0 else np.expm1(2.0 * gamma * times) / (2.0 * gamma)


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


def _spans_a_decade(lags: np.ndarray) -> bool:
    """The increment fit's rule on sorted lags: >= 5 positive values spanning at least one decade."""
    return len(lags) >= 5 and lags[0] > 0 and lags[-1] / lags[0] >= 10.0 - 1e-12


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
    if not _spans_a_decade(lags):
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
    if not _spans_a_decade(lags[usable]):
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

    companion = (trace.wa_half_analytic, trace.wa_half_se, trace.wa_half_empirical, trace.resid_mean,
                 trace.resid_se)
    if any(series is None for series in companion):
        raise ValueError("mode 'zero' needs a trace with its analytic companion, as estimate_enstrophy builds")
    wa_half, wa_se, emp, resid, resid_se = (series[pos] for series in companion)
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


def simulate_premise(cfg) -> None:
    """simulate runs on any config that loads."""


def simulate_verdict(cfg, trace: EnstrophyTrace) -> tuple:
    summary = (f"simulate: wrote {Path(cfg.io['out_dir'])} "
               f"({trace.n_paths} paths, {len(trace.times)} output times)")
    return "pass", summary, {}, {"spectrum_tail_bound": stationary_tail_bound(cfg.spectrum)}


def _start_law(cfg, times) -> tuple[np.ndarray, np.ndarray]:
    """`linear_law` from the config's start at its r; at t = 0, the law of ||omega_0||^2 of any run."""
    moments = cfg.sim.initial_condition.moments(cfg.basis.n_modes)
    return linear_law(cfg.spectrum, cfg.params.r, times, *moments)


def verify_linear_premise(cfg) -> None:
    """The oracle is the law of a linear run from its start: no advection and no beta term."""
    if not cfg.params.linearized:
        raise ParameterError("linearized", "must be on for verify-linear")
    if cfg.params.effective_beta != 0.0:
        raise ParameterError("beta_term", "must be off for verify-linear")


def verify_linear_verdict(cfg, trace: EnstrophyTrace) -> tuple:
    """The law is taken from the config (its start, its r), never from the solver's rates."""
    report = linear_oracle_check(trace, *_start_law(cfg, trace.times))
    worst_z = f"worst |z|={abs(report['worst_z']):.3g}, threshold {report['z_threshold']:.3g}"
    summary = (f"verify-linear: pass ({worst_z})" if report["verdict"] == "pass" else
               f"verify-linear: oracle mismatch, {worst_z} at t={report['worst_time']:g}")
    return report["verdict"], summary, {"linear_report.json": report}, None


def bounds_premise(cfg) -> tuple[float, float, float | None]:
    """Output times the fit protocol can use and envelopes finite on them; returns `bound_parameters`."""
    check_fit_times(cfg.sim.output_times)
    return bound_parameters(cfg.params.nu, cfg.params.r, cfg.params.effective_beta,
                            cfg.spectrum.mu_exp, cfg.sim.output_times)


def bounds_verdict(cfg, trace: EnstrophyTrace) -> tuple:
    """The trace-class envelope and both Theorem 2 envelopes fitted; "fail" if one is violated.

    A bound whose premise fails is not applicable, and its notes name the premise.
    """
    gamma, threshold, mu_tilde = bounds_premise(cfg)
    spectrum, times = cfg.spectrum, cfg.sim.output_times
    mu_exp, theta = spectrum.mu_exp, spectrum.theta
    e0 = float(_start_law(cfg, [0.0])[0][0])  # E||omega_0||^2
    if spectrum.trace_class:
        envelope = trace_class_envelope(0.5 * e0, gamma, covariance_trace(spectrum), times)
        reports = [validate_bound(trace, envelope).to_dict()]
    else:
        reports = [{"kind": "trace_class", "verdict": "not_applicable", "notes": "spectrum is not trace-class"}]
    # Theorem 2(b) is 2(a)'s shape at mu_tilde = 1: (kind, shape's mu_tilde, params, the
    # premise that failed, or None where the theorem applies)
    theorem2 = (
        ("theorem2a", mu_tilde, {"gamma": gamma, "mu_tilde": mu_tilde},
         "explicit mu_sq_list: no power-law decay rule" if mu_exp is None
         else "mu_exp <= 0: no mu_tilde in (0, mu_exp)" if mu_tilde is None else None),
        ("theorem2b", 1.0, {"gamma": gamma},
         None if mu_exp is None or mu_exp - theta > 1.0
         else "mu_exp - theta <= 1: sum mu_k^2 |lambda_k|^theta diverges under the decay rule"),
    )
    for kind, shape_mu, params, failed in theorem2:
        if failed is None:
            shape = theorem2_shape(e0, gamma, times, shape_mu)
            reports.append(fit_and_validate_bound(trace, shape, kind=kind, params=params).to_dict())
        else:
            reports.append({"kind": kind, "verdict": "not_applicable", "notes": failed})

    alphas = np.geomspace(1e2, 1e4, 9)
    phi = [phi_alpha(spectrum, a) for a in alphas]
    payload = {
        "gamma": gamma, "gamma_threshold": threshold, "c1": DIRICHLET_C1,
        "spectrum_tail_bound": stationary_tail_bound(spectrum), "bounds": reports,
        "phi_table": {  # JSON has no Infinity: the window is None where phi = 0 (no noise)
            "alpha": alphas, "phi": phi, "indicative_time_window": [1.0 / p if p > 0 else None for p in phi],
            "notes": "window t <= C/phi(alpha) has an unknown constant; indicative only"},
    }
    # envelopes.csv: the trace against every evaluated envelope
    fitted = [r for r in reports if "envelope" in r]
    header = ["time", "ens_mean", "ens_se", *(f"envelope_{r['kind']}" for r in fitted), "analytic_wa_var"]
    columns = [trace.times, trace.ens_mean, trace.ens_se, *(r["envelope"] for r in fitted),
               2.0 * trace.wa_half_analytic]
    files = {"bounds_report.json": payload,
             "envelopes.csv": (header, list(zip(*(np.asarray(c).tolist() for c in columns))))}

    failed = [r["kind"] for r in reports if r["verdict"] == "fail"]
    summary = ", ".join(f"{r['kind']}={r['verdict']}" for r in reports)
    if failed:
        return "fail", f"bounds: violation in {failed} ({summary})", files, None
    return "pass", f"bounds: {summary}", files, None


def holder_premise(cfg) -> None:
    """holder needs an analysis.holder section; the load checked it against the output times."""
    if not cfg.analysis["holder"]:
        raise ParameterError("window", "is required for holder")


def holder_verdict(cfg, trace: EnstrophyTrace) -> tuple:
    result = holder_exponent_fit(trace, cfg.analysis["holder"]["window"], cfg.analysis["holder"]["lags"])
    verdict, exponent = result["verdict"], result.get("exponent")
    summary = f"holder: {verdict}" + (f" (exponent {exponent:.4f})" if exponent is not None else "")
    return verdict, summary, {"holder_report.json": result}, None


def asymptotics_premise(cfg) -> None:
    """>= 3 positive output times; mode "zero" needs omega(0) = 0, as only from rest does
    Ens(t) start out as the convolution's. The load checked the mode and delta."""
    check_small_times(cfg.sim.output_times)
    if cfg.analysis["asymptotics"]["mode"] == "zero" and not cfg.sim.initial_condition.at_rest:
        raise ParameterError("mode", "'zero' requires a zero initial condition")


def asymptotics_verdict(cfg, trace: EnstrophyTrace) -> tuple:
    """General mode fits only the times before the slowest mode relaxes, 1 / (2 |lambda_1 - r|)."""
    mode, delta = cfg.analysis["asymptotics"]["mode"], cfg.analysis["asymptotics"]["delta"]
    ens0 = 0.5 * float(_start_law(cfg, [0.0])[0][0])
    limit = 1.0 / (2.0 * abs(float(cfg.basis.eigenvalues[0]) - cfg.params.r))
    result = asymptotics_check(trace, mode, delta, ens0=ens0, fit_time_limit=limit)
    verdict = result["verdict"]
    return verdict, f"asymptotics[{mode}]: {verdict}", {"asymptotics_report.json": result}, None
