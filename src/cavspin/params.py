"""Physical parameters of the driven atoms + cavity system and derived quantities.

All rates, detunings and couplings are dimensionless, expressed in units of a
single reference rate (conventionally the cavity coupling |g_a| = 1).  A
reference rate in Hz, which converts output times to seconds, is a setting of
the ``evolve`` command only (``ref_rate_hz``); it never enters the dynamics.

The config file names each field by the key or keys of one table,
``_FIELD_KEYS``; ``CONFIG_KEYS``, ``params_from_mapping`` and
``params_to_mapping`` all go through it.  The config number readers that
every command shares sit next to ``read_config``, beside the input rules of
every layer and the CLI: ``_count``, ``_times``, ``_positive`` and ``_finite``.
Both eliminations divide by one rule, ``_lorentzian`` (Delta^2 + width^2/4, its
squares formed as products), with the kappa' rule ``_kappa_prime`` on it; the
validity ratios, Stark shifts, moments, oracle and optimizer pin all read them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

PASS_THRESHOLD = 1e-2
WARN_THRESHOLD = 1e-1

#: config key or keys of each PhysicalParams field, in canonical order: one
#: key for a real field, a ``_re``/``_im`` pair for a complex one
_FIELD_KEYS = {
    "n_atoms": ("n_atoms",),
    "g_a": ("g_a_re", "g_a_im"),
    "g_b": ("g_b_re", "g_b_im"),
    "omega_1": ("omega1_re", "omega1_im"),
    "omega_2": ("omega2_re", "omega2_im"),
    "delta_1": ("delta1",),
    "omega_ab": ("omega_ab",),
    "delta": ("delta",),
    "kappa": ("kappa",),
    "gamma_a": ("gamma_a",),
    "gamma_b": ("gamma_b",),
    "gamma_o": ("gamma_o",),
}

#: exact keys of the structured-text parameter block, in canonical order
CONFIG_KEYS = tuple(key for keys in _FIELD_KEYS.values() for key in keys)


class ConfigError(ValueError):
    """Raised on malformed configuration input (reports line numbers)."""


@dataclass(frozen=True)
class PhysicalParams:
    """All physical rates of the bichromatically driven atoms-cavity system.

    The reference rate in Hz is not a field: it is a setting of the
    ``evolve`` command only (``ref_rate_hz``).

    Attributes
    ----------
    n_atoms : number of atoms N, a count (``_count``) stored as an ``int``.
    g_a, g_b : complex cavity couplings on the a-e and b-e transitions.
    omega_1, omega_2 : complex resonant Rabi frequencies of the two lasers.
    delta_1 : laser detuning from the excited state.
    omega_ab : ground-state splitting.
    delta : two-photon detuning from the cavity mode.
    kappa : cavity decay rate.
    gamma_a, gamma_b, gamma_o : excited-state branching decay rates.
    """

    n_atoms: int
    g_a: complex = 1.0
    g_b: complex = 1.0
    omega_1: complex = 0.0
    omega_2: complex = 0.0
    delta_1: float = 0.0
    omega_ab: float = 0.0
    delta: float = 0.0
    kappa: float = 0.0
    gamma_a: float = 0.0
    gamma_b: float = 0.0
    gamma_o: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n_atoms", _count(self.n_atoms, "n_atoms"))
        for name in ("g_a", "g_b", "omega_1", "omega_2", "delta_1", "omega_ab", "delta",
                     "kappa", "gamma_a", "gamma_b", "gamma_o"):
            _finite(getattr(self, name), name)
        for name in ("kappa", "gamma_a", "gamma_b", "gamma_o"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    @property
    def delta_2(self) -> float:
        return self.delta_1 + self.omega_ab

    @property
    def gamma_total(self) -> float:
        return self.gamma_a + self.gamma_b + self.gamma_o

    def with_drives(self, omega_1: complex, omega_2: complex) -> "PhysicalParams":
        return replace(self, omega_1=omega_1, omega_2=omega_2)


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from :class:`PhysicalParams` by direct formula evaluation.

    ``chi`` is the one-axis twisting rate of the matched-drive ideal limit; it
    is ``None`` whenever the two Raman strengths are not matched (relative
    mismatch above 1e-9) or the cavity detuning vanishes.
    """

    delta_2: float
    gamma_total: float
    kappa_prime: float
    chi: float | None
    cooperativity: float


@dataclass(frozen=True)
class ValidityReport:
    """Adiabatic-elimination validity ratios with pass/warn/fail verdicts."""

    ratio_excited_1: float
    ratio_excited_2: float
    ratio_freqs: float
    ratio_cavity: float
    verdicts: dict[str, str]

    RATIO_NAMES = ("ratio_excited_1", "ratio_excited_2", "ratio_freqs", "ratio_cavity")

    def ratios(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.RATIO_NAMES}

    @property
    def worst(self) -> str:
        order = {"pass": 0, "warn": 1, "fail": 2}
        return max(self.verdicts.values(), key=order.__getitem__)


def _lorentzian(detuning: float, width: float) -> float:
    """The one elimination denominator, detuning^2 + width^2/4, its squares formed as products."""
    return detuning * detuning + width * width / 4.0


def _kappa_prime(kappa: float, n_atoms: int, gamma: float, g_a: complex, delta_2: float) -> float:
    """The one kappa' rule: kappa + N Gamma |g_a|^2 / (Delta_2^2 + Gamma^2/4)."""
    d2sq = _lorentzian(delta_2, gamma)
    if d2sq == 0.0:
        raise ValueError("delta_2 and Gamma both zero: effective cavity rate undefined")
    return kappa + n_atoms * gamma * abs(g_a) ** 2 / d2sq


def kappa_prime(params: PhysicalParams) -> float:
    """Effective cavity decay rate, broadened by photon scattering off the atoms."""
    return _kappa_prime(params.kappa, params.n_atoms, params.gamma_total, params.g_a,
                        params.delta_2)


def _check_detunings(params: PhysicalParams) -> None:
    """Refuse a vanishing laser detuning, which every dispersive formula divides by."""
    if params.delta_1 == 0.0 or params.delta_2 == 0.0:
        raise ValueError("delta_1 and delta_2 must be nonzero")


def raman_mismatch(params: PhysicalParams) -> float:
    """Relative mismatch between the two Raman strengths Omega_l g_k* / Delta_l."""
    r1 = params.omega_1 * params.g_b.conjugate() / params.delta_1
    r2 = params.omega_2 * params.g_a.conjugate() / params.delta_2
    if r1 == 0 and r2 == 0:
        return 0.0
    return abs(r1 - r2) / max(abs(r1), abs(r2))


def derive(params: PhysicalParams) -> DerivedParams:
    """Evaluate all derived parameters.

    Raises
    ------
    ValueError
        If ``delta_1`` or ``delta_2`` vanishes (the dispersive formulas divide
        by both detunings).
    """
    _check_detunings(params)
    kp = kappa_prime(params)
    chi = None
    if params.delta != 0.0 and raman_mismatch(params) <= 1e-9:
        chi = abs(params.omega_1 * params.g_b / params.delta_1) ** 2 / params.delta
    denom = params.kappa * params.gamma_total
    coop = math.inf if denom == 0.0 else params.n_atoms * abs(params.g_a * params.g_b) / denom
    return DerivedParams(
        delta_2=params.delta_2,
        gamma_total=params.gamma_total,
        kappa_prime=kp,
        chi=chi,
        cooperativity=coop,
    )


def _verdict(ratio: float) -> str:
    if ratio < PASS_THRESHOLD:
        return "pass"
    if ratio < WARN_THRESHOLD:
        return "warn"
    return "fail"


def check_validity(params: PhysicalParams) -> ValidityReport:
    """Evaluate the adiabatic-elimination validity ratios.

    The excited-state ratios compare each laser's Rabi frequency to its
    detuning, the frequency ratio compares the slow scales (two-photon
    detuning, effective cavity linewidth) to the ground-state splitting, and
    the cavity ratio bounds the photon number built up in the cavity mode.
    Each ratio passes below ``PASS_THRESHOLD`` (1e-2), warns below
    ``WARN_THRESHOLD`` (1e-1) and fails from there on.
    """
    g = params.gamma_total
    d1sq = _lorentzian(params.delta_1, g)
    kp = kappa_prime(params)
    csq = _lorentzian(params.delta, kp)

    def _ratio(num: float, den: float) -> float:
        if den == 0.0:
            return 0.0 if num == 0.0 else math.inf
        return num / den

    r1 = _ratio(abs(params.omega_1) ** 2 / 4.0, d1sq)
    r2 = _ratio(abs(params.omega_2) ** 2 / 4.0, _lorentzian(params.delta_2, g))
    rf = _ratio(max(abs(params.delta), kp), abs(params.omega_ab))
    # the photon number of the eliminated cavity at t=0, all population in |a>
    rc = _ratio(params.n_atoms * abs(params.omega_1 * params.g_b) ** 2 / 4.0, d1sq * csq)
    ratios = {
        "ratio_excited_1": r1,
        "ratio_excited_2": r2,
        "ratio_freqs": rf,
        "ratio_cavity": rc,
    }
    verdicts = {k: _verdict(v) for k, v in ratios.items()}
    return ValidityReport(
        ratio_excited_1=r1,
        ratio_excited_2=r2,
        ratio_freqs=rf,
        ratio_cavity=rc,
        verdicts=verdicts,
    )


def decoherence_budget(params: PhysicalParams) -> tuple[float, float]:
    """Back-of-envelope decoherence counts over one squeezing time.

    Returns ``(n_gamma, n_kappa)``: the number of spontaneously decayed atoms
    and the number of photons lost from the cavity.  A lossless cavity gives
    ``n_kappa = 0``; at zero two-photon detuning the photon count is reported
    as unbounded (``inf``) although the moment dynamics itself stays well
    defined there.
    """
    gsq = abs(params.g_a * params.g_b)
    if gsq == 0.0:
        raise ValueError("cavity couplings must be nonzero for the decoherence budget")
    n_gamma = params.gamma_total * abs(params.delta) / gsq
    if params.kappa == 0.0:
        n_kappa = 0.0
    elif params.delta == 0.0:
        n_kappa = math.inf
    else:
        n_kappa = params.kappa / abs(params.delta)
    return n_gamma, n_kappa


def stark_shifts(params: PhysicalParams) -> tuple[float, float]:
    """AC-Stark shifts of the two ground states induced by the classical fields.

    Raises ``ValueError``, naming the detuning, where a laser detuning and
    the excited-state decay both vanish: the shift divides by
    Delta_l^2 + Gamma^2/4.
    """
    g = params.gamma_total
    for name, d in (("delta_1", params.delta_1), ("delta_2", params.delta_2)):
        if _lorentzian(d, g) == 0.0:
            raise ValueError(f"{name} = {d:g} with no excited-state decay: "
                             f"the AC-Stark shift divides by {name}^2 + gamma^2/4 = 0")
    s_a = params.delta_1 * abs(params.omega_1) ** 2 / (4.0 * _lorentzian(params.delta_1, g))
    s_b = params.delta_2 * abs(params.omega_2) ** 2 / (4.0 * _lorentzian(params.delta_2, g))
    return s_a, s_b


def balance_stark(params: PhysicalParams) -> float:
    """|Omega_2| that equalizes the AC-Stark shifts of the two ground states.

    With equal shifts, common laser-power fluctuations no longer dephase the
    two ground states.

    Raises
    ------
    ValueError
        If ``delta_1 * delta_2 <= 0``, where no real solution exists.
    """
    d1, d2 = params.delta_1, params.delta_2
    if d1 * d2 <= 0.0:
        raise ValueError("no real balanced drive for opposite-sign detunings")
    g = params.gamma_total
    ratio = (d1 / _lorentzian(d1, g)) * (_lorentzian(d2, g) / d2)
    return abs(params.omega_1) * math.sqrt(ratio)


def match_raman(params: PhysicalParams) -> complex:
    """Omega_2 that makes the two Raman processes identical in strength.

    Solves Omega_1 g_b* / Delta_1 = Omega_2 g_a* / Delta_2 for Omega_2,
    retaining complex phases.
    """
    if params.g_a == 0:
        raise ValueError("matched drive undefined for g_a = 0")
    if params.delta_1 == 0.0:
        raise ValueError("matched drive undefined for delta_1 = 0")
    return params.omega_1 * params.g_b.conjugate() * params.delta_2 / (
        params.g_a.conjugate() * params.delta_1
    )


# ---------------------------------------------------------------------------
# structured-text configuration files: "key = value", one parameter per line
# ---------------------------------------------------------------------------

def read_config(path) -> dict[str, str]:
    """Parse a ``key = value`` configuration file into an ordered mapping.

    Blank lines and lines starting with ``#`` are ignored, and so is a
    leading UTF-8 byte-order mark.  Malformed lines and duplicate keys raise
    :class:`ConfigError` with the line number, and a file that is not UTF-8
    text raises it with the path.
    """
    source = str(path)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{source}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _count(value, name: str, least: int = 1) -> int:
    """The one count rule: ``value`` as an ``int`` if finite, integral and at least
    ``least`` (numpy integers and integral floats pass), else ``ValueError``
    naming the field ``name``.
    """
    if not (math.isfinite(value) and int(value) == value):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _times(t, name: str, single: bool = False) -> np.ndarray:
    """The one time rule: ``t``, one time or a non-empty 1-D sequence (one time
    only where ``single``), as a 1-D float64 array in the given order if every
    time is finite and >= 0, else ``ValueError`` naming ``name`` and the bad values."""
    try:
        times = np.array(t, dtype=float, ndmin=1)
    except (TypeError, ValueError):
        times = np.empty((0, 0))    # no number: refused as not 1-D
    if times.ndim != 1 or not 0 < times.size <= (1 if single else times.size):
        shape = "one time" if single else "one time or a non-empty 1-D sequence of times"
        raise ValueError(f"{name} must be {shape}, got {t!r}")
    bad = times[~(np.isfinite(times) & (times >= 0.0))]
    if bad.size:
        raise ValueError(f"{name} must hold finite nonnegative times, got {bad.tolist()}")
    return times


def _positive(x, name: str) -> float:
    """The one positive-number rule: ``float(x)`` if finite and > 0, else ``ValueError``
    naming ``name``."""
    try:
        if 0.0 < float(x) < math.inf:
            return float(x)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be finite and positive, got {x!r}")


def _finite(x, name: str):
    """The one finite-number rule: ``x``, a real or complex number or a tuple of them,
    as it is if every entry is finite, else ``ValueError`` naming ``name``."""
    try:
        if all(map(cmath.isfinite, x)) if isinstance(x, tuple) else cmath.isfinite(x):
            return x
    except TypeError:   # no number
        pass
    raise ValueError(f"{name} must be finite, got {x!r}")


def _number(mapping: dict, key: str, kind=float, default=None):
    """``mapping[key]`` parsed as a ``kind`` (float or int), finite or not, or
    ``default`` where the key is absent; the input rules check the value."""
    if key not in mapping:
        return default
    try:
        return kind(mapping[key])
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r}: not {noun}: {mapping[key]!r}") from exc


def _float_list(mapping: dict, key: str) -> list[float]:
    """The comma-separated numbers under ``key``, finite or not."""
    try:
        return [float(tok) for tok in mapping[key].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a comma-separated number list") from exc


def params_from_mapping(mapping: dict[str, str]) -> PhysicalParams:
    """Build :class:`PhysicalParams` from the 16 canonical config keys.

    Non-finite values are left to :class:`PhysicalParams`, whose refusal
    names the field.
    """
    missing = [k for k in CONFIG_KEYS if k not in mapping]
    if missing:
        raise ConfigError(f"missing parameter keys: {', '.join(missing)}")
    values = {}
    for name, keys in _FIELD_KEYS.items():
        parts = [_number(mapping, key, int if name == "n_atoms" else float) for key in keys]
        values[name] = complex(*parts) if len(parts) == 2 else parts[0]
    try:
        return PhysicalParams(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def params_to_mapping(params: PhysicalParams) -> dict[str, str]:
    """Inverse of :func:`params_from_mapping`, with full double precision."""
    out = {}
    for name, keys in _FIELD_KEYS.items():
        value = getattr(params, name)
        parts = (value.real, value.imag) if len(keys) == 2 else (value,)
        out.update(zip(keys, (str(x) if name == "n_atoms" else "%.17g" % x for x in parts)))
    return out


def demo_params(n_atoms: int = 10 ** 6, dissipation: bool = True) -> PhysicalParams:
    """Reference parameter set of the bad-cavity squeezing demonstration run."""
    gamma = 100.0 / 3.0 if dissipation else 0.0
    return PhysicalParams(
        n_atoms=n_atoms,
        g_a=1.0,
        g_b=1.0,
        omega_1=1e4,
        omega_2=1e4,
        delta_1=1e5,
        omega_ab=1e4,
        delta=500.0,
        kappa=100.0 if dissipation else 0.0,
        gamma_a=gamma,
        gamma_b=gamma,
        gamma_o=gamma,
    )
