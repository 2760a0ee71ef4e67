"""Function parameters for refined smoothness scales.

Two families of positive functions are represented here.  Members of the
slowly-varying class (written ``M`` throughout) refine a power weight:
``phi(lam*r)/phi(r) -> 1`` as ``r -> inf`` for every ``lam > 0``.  The shipped
closed forms are iterated-log powers such as ``(1+ln r)^t1 (1+ln(1+ln r))^t2``,
shifted so every factor equals 1 at ``r = 1``.  Members of the interpolation
class (written ``B``) are positive Borel functions bounded on compacts with
``1/psi`` bounded on every ``[a, inf)``; the canonical construction takes
``s0 < s < s1`` and ``phi`` in ``M`` to

    psi(r) = r**((s-s0)/(s1-s0)) * phi(r**(1/(s1-s0)))   for r >= 1,
    psi(r) = phi(1)                                      for 0 < r < 1.

Membership in either class cannot be decided for arbitrary evaluators, so the
module exposes sampled diagnostics only; for the shipped families membership
is known analytically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._config import list_of, positive, read_kind, read_value, real
from .errors import NonPositiveValue, OrderingViolation, UnboundedRatio

__all__ = [
    "ParamKind",
    "FunctionParam",
    "InterpParam",
    "log_power",
    "constant",
    "power_times_slow",
    "custom",
    "check_slow_variation",
    "build_psi",
    "reiterate",
    "check_interp_membership",
    "check_pseudoconcavity",
    "sandwich_constants",
    "param_to_dict",
    "param_from_dict",
    "SlowVariationReport",
]

_POSITIVITY_GRID = np.array([10.0**j for j in range(0, 9)])  # 1, 10, ..., 1e8


class ParamKind(enum.Enum):
    LOG_POWER = "LogPower"
    CONSTANT = "Constant"
    POWER_TIMES_SLOW = "PowerTimesSlow"
    CUSTOM = "Custom"


def _iterated_log_factors(r: np.ndarray, depth: int) -> list[np.ndarray]:
    """ell_1 = 1 + ln r, ell_{i+1} = 1 + ln ell_i, clamped to r >= 1."""
    rc = np.maximum(np.asarray(r, dtype=float), 1.0)
    factors = []
    cur = 1.0 + np.log(rc)
    for _ in range(depth):
        factors.append(cur)
        cur = 1.0 + np.log(cur)
    return factors


@dataclass(frozen=True)
class FunctionParam:
    """A positive function of r >= 1 tagged with its closed-form family.

    ``base_power`` is the exponent of the plain ``r**theta`` factor; it is zero
    for pure slowly-varying members.  ``exponents`` are the iterated-log
    powers.  The evaluator accepts scalars or numpy arrays and clamps its
    argument to ``r >= 1`` (all call sites evaluate at ``r >= 1``).
    """

    kind: ParamKind
    exponents: tuple[float, ...] = ()
    base_power: float = 0.0
    scale: float = 1.0
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None  # compared by identity

    def __post_init__(self):
        if self.kind is ParamKind.CUSTOM and self.evaluator is None:
            raise ValueError("Custom parameters need an explicit evaluator")
        vals = self(_POSITIVITY_GRID)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise NonPositiveValue(
                "parameter is not positive/finite on the sampled grid r in {1,...,1e8}"
            )

    def __call__(self, r) -> np.ndarray:
        scalar = np.isscalar(r) or (isinstance(r, np.ndarray) and r.ndim == 0)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = self._eval(r)
        return float(out[0]) if scalar else out

    def _eval(self, r: np.ndarray) -> np.ndarray:
        if self.kind is ParamKind.CUSTOM:
            return np.asarray(self.evaluator(r), dtype=float)
        rc = np.maximum(r, 1.0)
        out = np.full_like(rc, self.scale)
        if self.base_power != 0.0:
            out = out * rc**self.base_power
        if self.exponents:
            for theta, fac in zip(
                self.exponents, _iterated_log_factors(rc, len(self.exponents))
            ):
                if theta != 0.0:
                    out = out * fac**theta
        return out

    def cache_key(self):
        """Hashable key of the parameter's values, or None for custom evaluators.

        A custom evaluator has no value-based identity, and its ``id`` is
        reused once it is garbage collected, so it gets no key.
        """
        if self.kind is ParamKind.CUSTOM:
            return None
        return (self.kind.value, self.exponents, self.base_power, self.scale)

    def describe(self) -> str:
        if self.kind is ParamKind.CONSTANT:
            return f"{self.scale:g}"
        if self.kind is ParamKind.CUSTOM:
            return f"custom({getattr(self.evaluator, '__name__', type(self.evaluator).__name__)})"
        parts = []
        if self.scale != 1.0:
            parts.append(f"{self.scale:g}")
        if self.base_power != 0.0:
            parts.append(f"r^{self.base_power:g}")
        log_expr = "1+ln r"
        for i, theta in enumerate(self.exponents):
            if theta != 0.0:
                parts.append(f"({log_expr})^{theta:g}")
            log_expr = f"1+ln({log_expr})"
        return "*".join(parts) if parts else "1"


def log_power(*exponents: float) -> FunctionParam:
    """Iterated-log power (1+ln r)^t1 (1+ln(1+ln r))^t2 ...; a class-M member."""
    return FunctionParam(kind=ParamKind.LOG_POWER, exponents=tuple(exponents))


def constant(value: float = 1.0) -> FunctionParam:
    if value <= 0:
        raise NonPositiveValue(f"constant parameter must be positive, got {value}")
    return FunctionParam(kind=ParamKind.CONSTANT, scale=float(value))


def power_times_slow(power: float, *exponents: float) -> FunctionParam:
    """r^power times an iterated-log factor.  Not slowly varying unless power = 0."""
    return FunctionParam(
        kind=ParamKind.POWER_TIMES_SLOW,
        exponents=tuple(exponents),
        base_power=float(power),
    )


def custom(evaluator: Callable[[np.ndarray], np.ndarray]) -> FunctionParam:
    return FunctionParam(kind=ParamKind.CUSTOM, evaluator=evaluator)


# -- serialization ------------------------------------------------------------

def param_to_dict(p: FunctionParam) -> dict:
    if p.kind is ParamKind.CUSTOM:
        raise ValueError("Custom evaluators are not serializable")
    d: dict = {"kind": p.kind.value}
    if p.kind is ParamKind.CONSTANT:
        d["value"] = p.scale
        return d
    d["theta"] = list(p.exponents)
    if p.kind is ParamKind.POWER_TIMES_SLOW:
        d["power"] = p.base_power
    return d


# per kind: the keys beside "kind" that a function parameter must hold, and those it may hold
_PARAM_KINDS = {"LogPower": ((), ("theta",)), "Constant": ((), ("value",)),
                "PowerTimesSlow": (("power",), ("theta",))}


def param_from_dict(d: dict) -> FunctionParam:
    """The parameter of a JSON object as :func:`param_to_dict` writes it; a key outside its
    kind's schema is an UnknownConfigKey, a missing key or a bad value an InvalidConfig."""
    kind = read_kind(d, "phi", _PARAM_KINDS)
    theta = read_value("phi theta", list_of(real), d.get("theta", []))
    if kind == "LogPower":
        return log_power(*theta)
    if kind == "Constant":
        return constant(read_value("phi value", positive, d.get("value", 1.0)))
    return power_times_slow(read_value("phi power", real, d["power"]), *theta)


# -- diagnostics ---------------------------------------------------------------

@dataclass(frozen=True)
class SlowVariationReport:
    deviation_at_rmax: float
    decades: tuple[float, ...]
    deviations: tuple[float, ...]
    passed: bool


def check_slow_variation(
    phi: FunctionParam,
    lam_set: Sequence[float] = (0.25, 0.5, 2.0, 4.0),
    r_max: float = 1e8,
) -> SlowVariationReport:
    """Sampled slow-variation diagnostic.

    Computes ``max over lam of |phi(lam*r)/phi(r) - 1|`` at ``r = r_max`` and
    along the decades ``r = 1e3, 1e4, ..., r_max``.  PASS means the decade
    sequence is non-increasing (within a 1e-12 slack) and the final deviation
    is below 0.1.  A heuristic, not a proof.
    """
    lam = np.asarray(lam_set, dtype=float)
    if np.any(lam < 0.25) or np.any(lam > 4.0):
        raise ValueError("lam_set must lie in [1/4, 4]")
    if r_max < 1e3:
        raise ValueError("r_max must be at least 1e3")
    n_dec = int(math.floor(math.log10(r_max)))
    decades = [10.0**j for j in range(3, n_dec + 1)]
    if decades[-1] < r_max:
        decades.append(float(r_max))

    devs = []
    for r in decades:
        base = phi(np.array([r]))[0]
        shifted = phi(lam * r)
        if base <= 0 or np.any(shifted <= 0):
            raise NonPositiveValue("phi must be positive at all sampled points")
        devs.append(float(np.max(np.abs(shifted / base - 1.0))))
    devs_arr = np.asarray(devs)
    non_increasing = bool(np.all(np.diff(devs_arr) <= 1e-12))
    passed = non_increasing and devs_arr[-1] < 0.1
    return SlowVariationReport(
        deviation_at_rmax=float(devs_arr[-1]),
        decades=tuple(decades),
        deviations=tuple(devs),
        passed=passed,
    )


@dataclass(frozen=True)
class InterpParam:
    """A positive function of r > 0 used as an interpolation parameter.

    Two parameters are equal when they share the evaluator (by identity) and
    the label, so parameters built with different functions compare and hash
    apart.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]  # compared by identity
    label: str = ""

    def __call__(self, r) -> np.ndarray:
        scalar = np.isscalar(r) or (isinstance(r, np.ndarray) and r.ndim == 0)
        out = np.asarray(
            self.evaluator(np.atleast_1d(np.asarray(r, dtype=float))), dtype=float
        )
        return float(out[0]) if scalar else out


def build_psi(s0: float, s: float, s1: float, phi: FunctionParam) -> InterpParam:
    """Interpolation parameter from an ordered triple and a slow factor.

    psi(r) = r^((s-s0)/(s1-s0)) * phi(r^(1/(s1-s0))) for r >= 1, psi = phi(1)
    below 1.  Raises :class:`OrderingViolation` unless s0 < s < s1.
    """
    if not (s0 < s < s1):
        raise OrderingViolation(f"need s0 < s < s1, got ({s0}, {s}, {s1})")
    theta = (s - s0) / (s1 - s0)
    root = 1.0 / (s1 - s0)
    phi1 = float(phi(np.array([1.0]))[0])

    def evaluator(r: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r)
        hi = r >= 1.0
        out[hi] = r[hi] ** theta * phi(r[hi] ** root)
        out[~hi] = phi1
        return out

    return InterpParam(evaluator=evaluator, label=f"psi[{s0:g},{s:g},{s1:g};{phi.describe()}]")


_DECADE_GRID = np.array([10.0**j for j in range(3, 9)])


def reiterate(alpha: InterpParam, beta: InterpParam, psi: InterpParam) -> InterpParam:
    """omega(r) = alpha(r) * psi(beta(r)/alpha(r)); closed under interpolation.

    Raises :class:`UnboundedRatio` when the sampled ratio alpha/beta keeps
    growing across the last two decades of r in [1e3, 1e8].
    """
    ratio = alpha(_DECADE_GRID) / beta(_DECADE_GRID)
    if ratio[-1] > ratio[-2] * (1 + 1e-12) and ratio[-2] > ratio[-3] * (1 + 1e-12):
        raise UnboundedRatio(
            "sampled alpha/beta grows across the last two decades; "
            "alpha/beta must stay bounded near infinity"
        )

    def evaluator(r: np.ndarray) -> np.ndarray:
        a = alpha(r)
        b = beta(r)
        return a * psi(b / a)

    return InterpParam(
        evaluator=evaluator,
        label=f"reiterate({alpha.label or 'alpha'},{beta.label or 'beta'},{psi.label or 'psi'})",
    )


def check_interp_membership(psi: InterpParam) -> dict:
    """Sampled class-B diagnostic: psi bounded on [1e-3, 1e3], 1/psi bounded on [1, 1e8],
    each interval sampled at 400 geometric points."""
    grid_compact = np.geomspace(1e-3, 1e3, 400)
    grid_tail = np.geomspace(1.0, 1e8, 400)
    vc = psi(grid_compact)
    vt = psi(grid_tail)
    ok = (
        np.all(np.isfinite(vc))
        and np.all(vc > 0)
        and np.all(np.isfinite(vt))
        and np.all(vt > 0)
    )
    return {
        "max_on_compact": float(np.max(vc)) if ok else float("inf"),
        "min_on_tail": float(np.min(vt)) if ok else 0.0,
        "passed": bool(ok and np.max(vc) < np.inf and np.min(vt) > 0.0),
    }


def check_pseudoconcavity(psi: InterpParam) -> dict:
    """Advisory sampled concavity check of log psi(e^x) for r = e^x in [1e2, 1e8].

    Reports the maximal positive second difference of the log-log profile at
    200 evenly spaced x; values near zero are consistent with
    pseudoconcavity.  Not a proof.
    """
    x = np.linspace(math.log(1e2), math.log(1e8), 200)
    y = np.log(psi(np.exp(x)))
    d2 = np.diff(y, 2)
    scale = max(1.0, float(np.max(np.abs(y))))
    worst = float(np.max(d2)) if d2.size else 0.0
    return {
        "max_second_difference": worst,
        "looks_pseudoconcave": bool(worst <= 1e-8 * scale + 1e-12),
    }


def sandwich_constants(phi: FunctionParam, s0: float, s: float, s1: float) -> tuple[float, float]:
    """Sampled constants c0, c1 with c0*r^(s0-s) <= phi(r) <= c1*r^(s1-s) on r >= 1,
    from 400 geometric samples of r in [1, 1e8]."""
    if not (s0 < s < s1):
        raise OrderingViolation(f"need s0 < s < s1, got ({s0}, {s}, {s1})")
    grid = np.geomspace(1.0, 1e8, 400)
    vals = phi(grid)
    c0 = float(np.min(vals / grid ** (s0 - s)))
    c1 = float(np.max(vals / grid ** (s1 - s)))
    return c0, c1
