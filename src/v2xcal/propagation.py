"""Cascaded propagation models for 5.9 GHz vehicle-to-infrastructure links.

Received power is built in two stages. A slow stage sets the local mean:
either a deterministic log-distance law anchored at a free-space reference
power, or the same law plus a zero-mean Gaussian shadowing term in dB. An
optional fast stage then draws per-packet multipath power from a Nakagami-m
envelope, implemented as a Gamma draw whose mean equals the slow-stage
power in linear milliwatts.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np
# Nothing in the package uses scipy; bench/run_bench.py reads scipy.__version__ from sys.modules.
import scipy  # noqa: F401

SPEED_OF_LIGHT_M_S = 299_792_458.0

FOUR_PI = 4.0 * math.pi

#: Minimum SNR required to decode each supported data rate, in dB.
#: Typical figures for 802.11p-class OFDM receivers in a 10 MHz channel.
SNR_THRESHOLDS_DB = {6: 5.0, 12: 11.0, 18: 15.0, 27: 20.0}

SUPPORTED_DATA_RATES_MBPS = tuple(SNR_THRESHOLDS_DB)

#: Decimal places kept on logged floats so CSV round trips are lossless. The
#: reception rule sees received power at this precision, as the log holds it.
LOG_DECIMALS = 9

#: Half-width, in uniform units, of the band around each packet's threshold
#: uniform inside which nakagami_delivered runs the exact chain.
NAKAGAMI_BAND = 1e-6

#: Largest Nakagami m the band's derivation covers; a larger m (or one that
#: is not finite) takes the exact chain for every packet.
NAKAGAMI_BAND_MAX_M = 1e4


class SlowFadingModel(enum.Enum):
    """Distance-driven stage of the channel."""

    FREE_SPACE = "fsm"
    LOGNORMAL = "lognormal"


class FastFadingModel(enum.Enum):
    """Per-packet multipath stage of the channel."""

    NONE = "none"
    NAKAGAMI = "nakagami"


class DeliveryReason(enum.Enum):
    """Outcome of a reception decision."""

    DELIVERED = "delivered"
    BELOW_SENSITIVITY = "below_sensitivity"
    BELOW_SNR = "below_snr"


#: Array form of DeliveryReason: a reason code is the reason's index here,
#: so the three codes follow the enum's member order.
REASONS = tuple(DeliveryReason)
DELIVERED, BELOW_SENSITIVITY, BELOW_SNR = range(len(REASONS))


def to_db(linear):
    """Convert a linear power ratio (or mW value) to dB (or dBm)."""
    return 10.0 * np.log10(linear)


def to_linear(db):
    """Convert dB (or dBm) to a linear ratio (or mW value)."""
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class RadioParams:
    """Transceiver settings shared by both link directions.

    Powers are linear milliwatts, gains are linear ratios, and the noise
    floor and sensitivity are dBm. Constructors enforce physical validity
    only; search-space range checks live in the calibration module.
    """

    tx_power_mw: float = 20.0
    antenna_gain_tx: float = 1.0
    antenna_gain_rx: float = 1.0
    carrier_frequency_hz: float = 5.9e9
    data_rate_mbps: int = 6
    noise_floor_dbm: float = -110.0
    rx_sensitivity_dbm: float = -110.0

    def __post_init__(self):
        if not (self.tx_power_mw > 0.0 and math.isfinite(self.tx_power_mw)):
            raise ValueError(f"tx_power_mw must be positive, got {self.tx_power_mw}")
        for name in ("antenna_gain_tx", "antenna_gain_rx"):
            gain = getattr(self, name)
            if not (gain > 0.0 and math.isfinite(gain)):
                raise ValueError(f"{name} must be a positive linear ratio, got {gain}")
        if not (self.carrier_frequency_hz > 0.0 and math.isfinite(self.carrier_frequency_hz)):
            raise ValueError(f"carrier_frequency_hz must be positive, got {self.carrier_frequency_hz}")
        if self.data_rate_mbps not in SUPPORTED_DATA_RATES_MBPS:
            raise ValueError(
                f"data_rate_mbps must be one of {SUPPORTED_DATA_RATES_MBPS}, got {self.data_rate_mbps}"
            )
        if not (self.noise_floor_dbm < 0.0 and math.isfinite(self.noise_floor_dbm)):
            raise ValueError(f"noise_floor_dbm must be negative, got {self.noise_floor_dbm}")
        if not (self.rx_sensitivity_dbm < 0.0 and math.isfinite(self.rx_sensitivity_dbm)):
            raise ValueError(f"rx_sensitivity_dbm must be negative, got {self.rx_sensitivity_dbm}")


@dataclass(frozen=True)
class FadingParams:
    """Channel-model selection and its shape parameters.

    alpha is the path-loss exponent applied per decade of distance beyond
    reference_distance_m, system_loss_db is a fixed loss folded into the
    reference power, sigma_db is the shadowing standard deviation (used only
    under LOGNORMAL), and nakagami_m the fading shape (used only under
    NAKAGAMI; m = 1 is Rayleigh-equivalent).
    """

    slow_model: SlowFadingModel = SlowFadingModel.FREE_SPACE
    fast_model: FastFadingModel = FastFadingModel.NONE
    alpha: float = 1.0
    system_loss_db: float = 0.0
    sigma_db: float = 2.0
    nakagami_m: float = 1.0
    reference_distance_m: float = 1.0

    def __post_init__(self):
        if not isinstance(self.slow_model, SlowFadingModel):
            raise ValueError(f"slow_model must be a SlowFadingModel, got {self.slow_model!r}")
        if not isinstance(self.fast_model, FastFadingModel):
            raise ValueError(f"fast_model must be a FastFadingModel, got {self.fast_model!r}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (self.system_loss_db >= 0.0 and math.isfinite(self.system_loss_db)):
            raise ValueError(f"system_loss_db must be >= 0 dB, got {self.system_loss_db}")
        if not (self.sigma_db >= 0.0 and math.isfinite(self.sigma_db)):
            raise ValueError(f"sigma_db must be >= 0 dB, got {self.sigma_db}")
        # Gamma power sampling needs shape >= 0.5 for a proper envelope.
        if not (self.nakagami_m >= 0.5 and math.isfinite(self.nakagami_m)):
            raise ValueError(f"nakagami_m must be >= 0.5, got {self.nakagami_m}")
        if not (self.reference_distance_m > 0.0 and math.isfinite(self.reference_distance_m)):
            raise ValueError(f"reference_distance_m must be positive, got {self.reference_distance_m}")


def free_space_rx_power(radio: RadioParams, fading: FadingParams) -> float:
    """Received power at the reference distance, in dBm.

    Friis transmission with isotropic-relative gains and the fixed system
    loss applied: P_t G_t G_r lambda^2 / ((4 pi)^2 d0^2 L).
    """
    lam = SPEED_OF_LIGHT_M_S / radio.carrier_frequency_hz
    pr_mw = (radio.tx_power_mw * radio.antenna_gain_tx * radio.antenna_gain_rx * lam**2
             / (FOUR_PI**2 * fading.reference_distance_m**2 * to_linear(fading.system_loss_db)))
    return float(to_db(pr_mw))


def log_decades(distance, reference_distance_m: float) -> np.ndarray:
    """log10(max(d, d0) / d0) of each distance d: the decades beyond the
    reference distance d0 that the log-distance law counts. No gene sets d0."""
    d = np.asarray(distance, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise ValueError("distance must be finite and positive")
    return np.log10(np.maximum(d, reference_distance_m) / reference_distance_m)


def log_distance_rx_power(radio: RadioParams, fading: FadingParams, distance) -> np.ndarray | float:
    """Deterministic slow-stage received power at one or more distances, dBm.

    Decays from the free-space reference by 10 * alpha dB per decade.
    Distances inside the reference distance clamp to it, so the reference
    power is the model's ceiling.
    """
    p = free_space_rx_power(radio, fading) - 10.0 * fading.alpha * log_decades(
        distance, fading.reference_distance_m)
    return float(p) if np.isscalar(distance) or np.ndim(distance) == 0 else p


#: Most Halley steps unit_gamma_draws takes. From its starts three sufficed
#: for every m in [0.5, 1e6] and u tried, tails included; m = 2 takes two.
GAMMA_INVERSE_STEPS = 8


def _gamma_start(m, u, q):
    """Starts for P^-1(m, u), q = 1 - u: Wilson-Hilferty from a rational
    normal quantile (Abramowitz and Stegun 26.2.23); below x = 0.3 (m + 1),
    the larger of that and x0 e^(x0 / (m + 1)) with x0^m = u Gamma(m + 1),
    which lies below the root. The upper tail needs no start of its own, as
    ln Q is close to linear there."""
    t = np.sqrt(-2.0 * np.log(np.minimum(u, q)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    y = m * (1.0 - 1.0 / (9.0 * m) + np.copysign(z, u - 0.5) / (3.0 * math.sqrt(m))) ** 3
    edge = 0.3 * (m + 1.0)
    low = u < math.exp(m * math.log(edge) - m * edge / (m + 1.0) - math.lgamma(m + 1.0))
    x0 = np.exp((np.log(u[low]) + math.lgamma(m + 1.0)) / m)
    y[low] = np.fmax(y[low], x0 * np.exp(x0 / (m + 1.0)))
    return y


def _gamma_term(m, x):
    """x^m e^-x / Gamma(m + 1). From m = 100, where x^m or Gamma(m + 1) may
    overflow, the exponential of m (log1p(t) - t) less Stirling's
    ln(Gamma(m + 1) e^m / m^m), t = (x - m) / m, which loses no digits to a
    large exponent near x = m."""
    if m < 100.0:
        return x**m * np.exp(-x) / math.gamma(m + 1.0)
    t = (x - m) / m
    log_ratio = np.where(np.abs(t) < 0.5, np.log1p(t), np.log(x / m))
    stirling = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * m * m)) / (m * m)) / m
    return np.exp(m * (log_ratio - t) - 0.5 * math.log(2.0 * math.pi * m) - stirling)


def _gamma_series(m, x):
    """P(m, x) / _gamma_term(m, x) = sum over n of x^n / ((m + 1) ... (m + n)),
    by Horner's rule in x / s; s = m + 1 from m = 100, where the coefficients
    of x^n would underflow. nan where x is not finite or above
    m + 1 + 4 sqrt(m + 1), where the coefficients the sum needs underflow
    (for m just under 100) and, for x >> m, their bound overflows; the sum
    there may overflow, so callers hold it in np.errstate. Inside, it is far
    from overflow: under 1e6 for m <= 1e4."""
    inside = x <= m + 1.0 + 4.0 * math.sqrt(m + 1.0)
    s, top = (1.0 if m < 100.0 else m + 1.0), float(x[inside].max(initial=0.0))
    coef, bound = [1.0], 1.0  # bound: the largest x's last term
    while bound > 2.0**-55 * (1.0 - top / (m + len(coef))):
        coef.append(coef[-1] * s / (m + len(coef)))
        bound *= top / (m + len(coef) - 1)
    y, total = x / s, coef[-1] + x / s * 0  # polyval's loop, as numpy.polynomial loads slowly
    for c in coef[-2::-1]:
        total *= y
        total += c
    return np.where(inside, total, np.nan)


def _gamma_fraction(m, x):
    """Q(m, x) / (m _gamma_term(m, x)), for x >= m + 1: Lentz's method on
    1 / (x + 1 - m - 1 (1 - m) / (x + 3 - m - 2 (2 - m) / (x + 5 - m - ...))),
    until every factor is within 1e-15 of 1, above their rounding noise."""
    b = x + 1.0 - m
    h = d = 1.0 / b
    c = np.full_like(x, np.inf)
    for i in itertools.count(1):
        b = b + 2.0
        d = 1.0 / (i * (m - i) * d + b)
        c = b + i * (m - i) / c
        h = h * d * c
        if not np.abs(d * c - 1.0).max(initial=0.0) > 1e-15:
            return h


def unit_gamma_draws(m, uniforms):
    """Gamma(shape m, scale 1) draws from uniforms: a Nakagami draw's only m-dependent factor.

    Each draw is P^-1(m, u), P the regularized lower incomplete gamma
    function: 0 for u = 0, inf for u = 1, nan for nan or u outside [0, 1].
    From _gamma_start, Halley's method solves ln P(x) = ln u for u < 1/2 and
    ln Q(x) = ln q above, Q = 1 - P and q = 1 - u, exact there. P comes from
    its series below x = m + 1 and Q from its continued fraction above
    (DiDonato and Morris, ACM TOMS 12(4), 1986), so P - u and Q - q lose no
    digits. An entry stops after a step under 1e-6 x / sqrt(m + 1): Halley's
    error is cubic in the step, on the root's scale x / sqrt(m).

    Cost. Near the root the series and the continued fraction each take
    about 9 sqrt(m) terms: 10,000 draws take about 3 ms at m = 3.5, the top
    of the search box, and 0.14 s at m = 1e6, where scipy takes 5 ms.
    nakagami_delivered sums the same series for the packets its bounds
    leave open, about 310 of 6,000 per genome in the quick-start search.

    Accuracy. At m = 2, within 4 ulp of 40-digit roots (mpmath; scipy's
    gammaincinv within 11). Tested against scipy for normal u up to
    1 - 2^-53: within 5e-13 relative for m in [0.5, 1e4], 1e-8 at m = 1e5
    and 1e6 (where scipy is off by 2e-9), and |P(P^-1(u)) - u| <= 5e-14 up
    to NAKAGAMI_BAND_MAX_M. A subnormal u, which no 53-bit uniform is,
    loses precision (6e-6 relative at u = 5e-324, m = 148).
    """
    if not (m >= 0.5 and math.isfinite(m)):
        raise ValueError(f"nakagami m must be >= 0.5, got {m}")
    u = np.asarray(uniforms, dtype=float).ravel()
    x = np.where(u == 0.0, 0.0, np.where(u == 1.0, np.inf, np.nan))
    inside = np.flatnonzero((u > 0.0) & (u < 1.0))
    u = u[inside]
    q = 1.0 - u
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        y = _gamma_start(m, u, q)
        side, target = np.where(u < 0.5, 1.0, -1.0), np.where(u < 0.5, u, q)
        index = np.flatnonzero(y > 0.0)  # a start that underflows to 0 is the answer
        ya, sa, ta = y[index], side[index], target[index]
        for _ in range(GAMMA_INVERSE_STEPS):
            if not index.size:
                break
            g = _gamma_term(m, ya)
            low = ya < m + 1.0
            tail = np.empty_like(ya)  # P(y) below m + 1, Q(y) above
            tail[low] = _gamma_series(m, ya[low])
            tail[~low] = m * _gamma_fraction(m, ya[~low])
            tail *= g
            p = np.where((sa > 0.0) == low, tail, 1.0 - tail)  # P(y) where u < 1/2, else Q(y)
            dens = m * g / ya  # P'(y)
            step = sa * np.log1p((p - ta) / ta) * p / dens
            step /= 1.0 - 0.5 * np.minimum(1.0, step * ((m - 1.0) / ya - 1.0 - sa * dens / p))
            ya = np.where(step < ya, ya - step, 0.5 * ya)
            y[index] = ya
            more = (np.abs(step) > 1e-6 / math.sqrt(m + 1.0) * ya) & (ya >= np.finfo(float).tiny)
            index, ya, sa, ta = index[more], ya[more], sa[more], ta[more]
    x[inside] = y
    return x.reshape(np.shape(uniforms))


def _check_omega(omega_mw) -> np.ndarray:
    omega = np.asarray(omega_mw, dtype=float)
    if not np.all(np.isfinite(omega)) or np.any(omega <= 0.0):
        raise ValueError("omega_mw must be finite and positive")
    return omega


def nakagami_power(omega_mw, m, unit_gamma):
    """Nakagami-m received power (mW) with mean omega_mw from unit_gamma_draws(m, u)."""
    return _check_omega(omega_mw) / m * unit_gamma


def nakagami_power_sample(omega_mw, m, rng, size=None):
    """Draw received power (mW) from a Nakagami-m envelope with mean omega_mw.

    The squared envelope of a Nakagami-m signal is Gamma distributed with
    shape m and scale omega/m, so power is sampled from that Gamma directly:
    mean omega, variance omega^2 / m. Sampling is by inverse transform (one
    uniform per draw), which keeps draws varying smoothly with m under a
    fixed random stream.
    """
    sample = nakagami_power(omega_mw, m, unit_gamma_draws(m, rng.random(size)))
    return float(sample) if size is None and np.ndim(omega_mw) == 0 else sample


def slow_rx_power(radio, fading, decades, normals):
    """Slow-stage received power, dBm: the log-distance law over decades,
    log_decades(distance, fading.reference_distance_m), plus sigma_db times
    the standard normals under LOGNORMAL (only then are they read)."""
    power = free_space_rx_power(radio, fading) - 10.0 * fading.alpha * decades
    if fading.slow_model is SlowFadingModel.LOGNORMAL:
        return power + fading.sigma_db * normals
    return power


def nakagami_rx_power(slow_dbm, m, uniforms):
    """Fast stage: power (dBm) after Nakagami-m fading of slow-stage power slow_dbm, one
    uniform per packet; slow_dbm + to_db(y / m) where omega/m * y underflows to 0 mW."""
    y = unit_gamma_draws(m, uniforms)
    power = nakagami_power(to_linear(slow_dbm), m, y)
    return to_db(np.where(power > 0.0, power, y / m)) + np.where(power > 0.0, 0.0, slow_dbm)


def deterministic_gain_db(radio: RadioParams, fading: FadingParams, distance):
    """Non-random channel gain relative to transmit power, in dB.

    Shadowing and fast fading excluded. Feasible configurations keep this
    at or below zero over every link distance; a positive value means the
    model would amplify the signal.
    """
    return log_distance_rx_power(radio, fading, distance) - to_db(radio.tx_power_mw)


def snr_threshold_db(data_rate_mbps: int, table=None) -> float:
    """Minimum decode SNR for a data rate, from the default or a custom table."""
    thresholds = SNR_THRESHOLDS_DB if table is None else table
    try:
        return float(thresholds[data_rate_mbps])
    except KeyError:
        raise ValueError(f"no SNR threshold for data rate {data_rate_mbps} Mbps") from None


def reception_codes(rx_power_dbm, radio: RadioParams, snr_table=None) -> np.ndarray:
    """Reason code (an index into REASONS) for each received power, in dBm.

    A packet is delivered iff the power clears the receiver sensitivity and
    the margin over the noise floor clears the data rate's SNR threshold;
    both comparisons are inclusive, and sensitivity is checked first.
    """
    power = np.asarray(rx_power_dbm, dtype=float)
    threshold = snr_threshold_db(radio.data_rate_mbps, snr_table)
    above_snr = np.where(power - radio.noise_floor_dbm >= threshold, DELIVERED, BELOW_SNR)
    return np.where(power >= radio.rx_sensitivity_dbm, above_snr, BELOW_SENSITIVITY)


def is_delivered(rx_power_dbm, radio: RadioParams, snr_table=None) -> np.ndarray:
    """reception_codes(...) == DELIVERED in one pass, for every float, nan and +-inf included."""
    power = np.asarray(rx_power_dbm, dtype=float)
    threshold = snr_threshold_db(radio.data_rate_mbps, snr_table)
    return (power >= radio.rx_sensitivity_dbm) & (power - radio.noise_floor_dbm >= threshold)


def uniform_margins(uniforms):
    """max(u - b, 0), u + b, max(1 - u - b, 0) and 1 - u + b of each uniform u,
    b = NAKAGAMI_BAND: what nakagami_delivered tests its bounds against."""
    u = np.asarray(uniforms, dtype=float)
    low, q_low = (np.maximum(v - NAKAGAMI_BAND, 0.0) for v in (u, 1.0 - u))
    return low, u + NAKAGAMI_BAND, q_low, 1.0 - u + NAKAGAMI_BAND


def nakagami_delivered(slow_dbm, m, uniforms, radio: RadioParams, snr_table=None, margins=None):
    """Delivery of Nakagami packets, decided mostly without drawing a power.

    Packet k has slow-stage power slow_dbm[k] and fast-fading uniform
    uniforms[k]. The result equals is_delivered(p), where p is
    nakagami_rx_power(slow_dbm, m, uniforms) rounded to LOG_DECIMALS.
    Returns the boolean delivered array and how many packets took the exact
    chain. margins, when given, is uniform_margins(uniforms).

    The rule. Power omega/m * y grows with the unit gamma draw y, and
    y = P^-1(u) grows with u, where P is the regularized lower incomplete
    gamma function of shape m. With the threshold
    T = max(sensitivity, noise floor + SNR threshold) in dBm, packet k is
    delivered iff y >= x_k = m * 10^((T - slow_k)/10), that is iff
    u_k >= c_k = P(m, x_k). Four closed forms bound c_k, with
    g = x^m e^-x / Gamma(m + 1) and h = g m / x:
    - P = g (t_0 + t_1 + ...), where t_0 = 1 and t_n = t_(n-1) x / (m + n),
      so P >= g, and P <= g (m + 1) / (m + 1 - x) when x < m + 1, as every
      ratio t_n / t_(n-1) is then below x / (m + 1);
    - Q = 1 - P = integral of t^(m-1) e^-t dt / Gamma(m) over [x, inf).
      Bounding t^(m-1) by x^(m-1) on one side and by
      x^(m-1) e^((m-1)(t-x)/x) on the other puts Q in
      [h, h x / (x - m + 1)] for m >= 1 and x > m - 1, and in
      [h x / (x + 1 - m), h] for m < 1.
    They take two exponentials per packet, of
    ln x = (T - slow) ln(10)/10 + ln m, clamped to [-700, 600], and of
    (m - 1) ln x - x - lgamma(m) for h, raised to -700 at least, below which
    libm's exp slows tenfold or more; g = h x / m, as at a tiny x g falls
    below 1e-304 where h, for m near 1, does not. The clamp moves c_k by
    under 1e-150 for m in [0.5, 1e4], and the raise, where x <= e^600, h x
    and g by under e^-100. A packet is decided once u_k lies more than
    NAKAGAMI_BAND beyond a bound, delivered if above: each test multiplies
    through by the bound's denominator, against the margins of
    uniform_margins, whose clamp at 0 keeps a bound with a denominator that
    is not positive from deciding. A packet left open gets
    c_k = _gamma_term(m, x_k) _gamma_series(m, x_k), the P that the Halley
    steps of unit_gamma_draws evaluate, and takes the exact chain iff
    |u_k - c_k| <= NAKAGAMI_BAND or c_k is nan, as it is for x_k above
    m + 1 + 4 sqrt(m + 1), where the series is not summed; otherwise it is
    delivered iff u_k > c_k. A nan threshold delivers nothing and takes no
    exact chain.

    Float error. ln x_k is rounded to within a few ulp of its largest part,
    so x_k is within a relative 1e-12 (4e-12 dB) of m 10^((T - slow_k)/10);
    the bounds and c_k are those of the x taken. The exponent of h is
    rounded to within a few ulp of its largest part, below 2e5 for
    m <= 1e4 where the exponential exceeds 1e-304, so h and g carry a
    relative error under 3e-10 (g = h x / m two roundings more), and
    _gamma_term, from its exponent or below m = 100 its three factors, no
    more. _gamma_series' N coefficients are running products and Horner's
    rule sums positive terms, so its sum is within 5N roundings of the
    series (N <= 1,421 for m <= 1e4 in its domain: 8e-13 relative) and
    stops within 2^-55 of it; the coefficients that underflow, just below
    m = 100, hold under 5e-14 of it. As c_k <= 1, c_k is within 1e-9 of
    P(m, x_k); against scipy's gammainc it measured within 7e-14.
    m + 1 - x and x - m + 1 lose precision only near the mode, where the
    bounds dividing by them exceed 1 and decide nothing, so the bounds, too,
    hold to within 1e-9.

    The band. Three things separate the comparison from the exact chain:
    - rounding p to LOG_DECIMALS (9) places moves it by at most 5e-10 dB;
    - p - noise >= threshold and p >= noise + threshold differ by float
      rounding near 100 dB, about 1e-14 dB, as do the float products and
      logarithms that form p; x_k is within 4e-12 dB, as above;
    - unit_gamma_draws' P^-1 in the exact chain is inexact, by at most
      |P(P^-1(u)) - u| <= 5e-14 for m in [0.5, 1e4] and u over (0, 1), tails
      included: its tested bound against scipy's P (1.7e-14 measured).
    So a packet whose true y is within a factor 1 + r of x_k, with
    10 log10(1 + r) = 1e-9 dB (r = 2.3e-10), may go either way; outside that
    factor the exact chain's decision is the comparison's. In u, the factor
    spans P(x(1 + r)) - P(x) = integral of y P'(y) dy/y over [x, x(1 + r)]
    <= ln(1 + r) max_y y P'(y) <= r m^m e^-m / Gamma(m) <= r sqrt(m / 2 pi),
    the maximum taken at y = m and the last step by Stirling's lower bound
    on Gamma(m). At m = 1e4 that is 9.2e-9; adding the 1e-9 slack of c_k and
    its bounds and the inverse's 5e-14 leaves the 1e-6 band about a hundred
    times wider than needed. For m beyond NAKAGAMI_BAND_MAX_M, or not finite,
    every packet takes the exact chain, and so raises the errors it raises.
    """
    slow = np.asarray(slow_dbm, dtype=float)
    # Inside +-3000 dBm, 10^(slow/10) mW is finite and positive.
    if not -3000.0 < slow.min(initial=np.inf) <= slow.max(initial=-np.inf) < 3000.0:
        _check_omega(to_linear(slow))
    u = np.asarray(uniforms, dtype=float)
    threshold = np.maximum(radio.rx_sensitivity_dbm, radio.noise_floor_dbm
                           + snr_threshold_db(radio.data_rate_mbps, snr_table))
    if not 0.5 <= m <= NAKAGAMI_BAND_MAX_M:
        delivered, exact = np.zeros(u.shape, dtype=bool), np.arange(u.size)
    elif math.isnan(threshold):
        delivered, exact = np.zeros(u.shape, dtype=bool), np.arange(0)
    else:
        # The first bounds, from ln x, clamped.
        log_x = slow * (-math.log(10.0) / 10.0)
        log_x += threshold * (math.log(10.0) / 10.0) + math.log(m)
        x = np.exp(np.minimum(np.maximum(log_x, -700.0, out=log_x), 600.0, out=log_x))
        low, high, q_low, q_high = uniform_margins(u) if margins is None else margins
        h = log_x * (m - 1.0)
        h -= x
        h -= math.lgamma(m)
        np.exp(np.maximum(h, -700.0, out=h), out=h)
        hx = h * x
        g = hx * (1.0 / m)
        delivered = g * (m + 1.0) < low * (m + 1.0 - x)  # g (m + 1) / (m + 1 - x) < u - band
        below = g > high
        if m >= 1.0:
            delivered |= h > q_high  # 1 - h < u - band
            below |= hx < q_low * (x - (m - 1.0))  # 1 - h x / (x - m + 1) > u + band
        else:
            delivered |= hx > q_high * (x - (m - 1.0))
            below |= h < q_low
        pending = np.flatnonzero(delivered == below)  # neither decides (both, by rounding)
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            above = u[pending] - _gamma_term(m, x[pending]) * _gamma_series(m, x[pending])
        delivered[pending] = above > NAKAGAMI_BAND
        exact = pending[~(np.abs(above) > NAKAGAMI_BAND)]  # nan: x outside the series' domain
    if exact.size:
        power = nakagami_rx_power(slow[exact], m, u[exact])
        delivered[exact] = is_delivered(np.round(power, LOG_DECIMALS), radio, snr_table)
    return delivered, exact.size
