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
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

SPEED_OF_LIGHT_M_S = 299_792_458.0

FOUR_PI = 4.0 * math.pi

#: Minimum SNR required to decode each supported data rate, in dB.
#: Typical figures for 802.11p-class OFDM receivers in a 10 MHz channel.
SNR_THRESHOLDS_DB = {6: 5.0, 12: 11.0, 18: 15.0, 27: 20.0}

SUPPORTED_DATA_RATES_MBPS = (6, 12, 18, 27)

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
    return 10.0 ** (np.asarray(db) / 10.0) if isinstance(db, np.ndarray) else 10.0 ** (db / 10.0)


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
        if self.antenna_gain_tx <= 0.0 or self.antenna_gain_rx <= 0.0:
            raise ValueError("antenna gains must be positive linear ratios")
        if self.carrier_frequency_hz <= 0.0:
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
        if self.system_loss_db < 0.0:
            raise ValueError(f"system_loss_db must be >= 0 dB, got {self.system_loss_db}")
        if self.sigma_db < 0.0:
            raise ValueError(f"sigma_db must be >= 0 dB, got {self.sigma_db}")
        # Gamma power sampling needs shape >= 0.5 for a proper envelope.
        if self.nakagami_m < 0.5:
            raise ValueError(f"nakagami_m must be >= 0.5, got {self.nakagami_m}")
        if not (self.reference_distance_m > 0.0 and math.isfinite(self.reference_distance_m)):
            raise ValueError(f"reference_distance_m must be positive, got {self.reference_distance_m}")


def free_space_rx_power(radio: RadioParams, fading: FadingParams) -> float:
    """Received power at the reference distance, in dBm.

    Friis transmission with isotropic-relative gains and the fixed system
    loss applied: P_t G_t G_r lambda^2 / ((4 pi)^2 d0^2 L).
    """
    lam = SPEED_OF_LIGHT_M_S / radio.carrier_frequency_hz
    loss_linear = to_linear(fading.system_loss_db)
    pr_mw = (
        radio.tx_power_mw
        * radio.antenna_gain_tx
        * radio.antenna_gain_rx
        * lam**2
        / (FOUR_PI**2 * fading.reference_distance_m**2 * loss_linear)
    )
    return float(to_db(pr_mw))


def _check_distance(distance) -> np.ndarray:
    d = np.asarray(distance, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise ValueError("distance must be finite and positive")
    return d


def log_distance_rx_power(radio: RadioParams, fading: FadingParams, distance) -> np.ndarray | float:
    """Deterministic slow-stage received power at one or more distances, dBm.

    Decays from the free-space reference by 10 * alpha dB per decade.
    Distances inside the reference distance clamp to it, so the reference
    power is the model's ceiling.
    """
    d = _check_distance(distance)
    d_eff = np.maximum(d, fading.reference_distance_m)
    p = free_space_rx_power(radio, fading) - 10.0 * fading.alpha * np.log10(
        d_eff / fading.reference_distance_m
    )
    return float(p) if np.isscalar(distance) or np.ndim(distance) == 0 else p


def shadowed_rx_power(radio, fading, distance, normals):
    """Log-distance power plus sigma_db times standard-normal draws, dBm."""
    return log_distance_rx_power(radio, fading, distance) + fading.sigma_db * normals


def lognormal_rx_power(radio, fading, distance, rng, size=None):
    """Slow-stage received power with Gaussian shadowing, dBm.

    Adds N(0, sigma_db^2) to the log-distance mean. With size=None a single
    float is returned; otherwise an array of independent draws at the same
    distance(s).
    """
    power = shadowed_rx_power(radio, fading, distance, rng.standard_normal(size))
    return float(power) if size is None else power


def unit_gamma_draws(m, uniforms):
    """Gamma(shape m, scale 1) draws from uniforms: a Nakagami draw's only m-dependent factor."""
    return special.gammaincinv(m, uniforms)


def _check_omega(omega_mw) -> np.ndarray:
    omega = np.asarray(omega_mw, dtype=float)
    if not np.all(np.isfinite(omega)) or np.any(omega <= 0.0):
        raise ValueError("omega_mw must be finite and positive")
    return omega


def nakagami_power(omega_mw, m, unit_gamma):
    """Nakagami-m received power (mW) with mean omega_mw from unit_gamma_draws(m, u)."""
    omega = _check_omega(omega_mw)
    if not (m >= 0.5 and math.isfinite(m)):
        raise ValueError(f"nakagami m must be >= 0.5, got {m}")
    return omega / m * unit_gamma


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


def cascade_rx_power(radio, fading, distance, rng, size=None, fast_rng=None):
    """Per-packet received power through the slow and fast stages, dBm.

    The slow stage consumes draws from ``rng`` (only under LOGNORMAL); the
    fast stage consumes from ``fast_rng`` when given, else from ``rng``.
    Separate streams keep one stage's draws independent of whether the
    other stage is enabled.
    """
    normals = unit_gamma = None
    if fading.slow_model is SlowFadingModel.LOGNORMAL:
        normals = rng.standard_normal(size)
    if fading.fast_model is FastFadingModel.NAKAGAMI:
        uniforms = (fast_rng if fast_rng is not None else rng).random(size)
        unit_gamma = unit_gamma_draws(fading.nakagami_m, uniforms)
    return cascade_from_draws(radio, fading, distance, normals, unit_gamma, size)


def slow_rx_power(radio, fading, distance, normals):
    """Slow-stage received power, dBm: shadowed by the standard normals under
    LOGNORMAL (only then are they read), the log-distance law otherwise."""
    if fading.slow_model is SlowFadingModel.LOGNORMAL:
        return shadowed_rx_power(radio, fading, distance, normals)
    return log_distance_rx_power(radio, fading, distance)


def cascade_from_draws(radio, fading, distance, normals, unit_gamma, size=None):
    """cascade_rx_power for given draws: standard normals for the shadowing
    and unit_gamma_draws(nakagami_m, u) for the fast stage, each read only
    when its stage is enabled."""
    slow_dbm = slow_rx_power(radio, fading, distance, normals)
    if size is not None and fading.slow_model is not SlowFadingModel.LOGNORMAL:
        slow_dbm = np.broadcast_to(np.asarray(slow_dbm, dtype=float), size).copy()
    if fading.fast_model is FastFadingModel.NONE:
        return slow_dbm
    omega_mw = to_linear(np.asarray(slow_dbm)) if size is not None else to_linear(float(slow_dbm))
    out = to_db(nakagami_power(omega_mw, fading.nakagami_m, unit_gamma))
    return float(out) if size is None else out


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


def nakagami_delivered(slow_dbm, m, uniforms, radio: RadioParams, snr_table=None):
    """Delivery of Nakagami packets, decided mostly without drawing a power.

    Packet k has slow-stage power slow_dbm[k] and fast-fading uniform
    uniforms[k]. The result equals reception_codes(p) == DELIVERED, where p
    is the cascade power rounded to LOG_DECIMALS: to_db(nakagami_power(
    omega, m, unit_gamma_draws(m, u))) with omega = to_linear(slow_dbm).
    Returns the boolean delivered array and how many packets took the exact
    chain.

    The rule. Power omega/m * g grows with the unit gamma draw g, and
    g = G^-1(u) grows with u, where G is the regularized lower incomplete
    gamma function (scipy's gammainc) of shape m. With the threshold
    T = max(sensitivity, noise floor + SNR threshold) in dBm, packet k is
    delivered iff g >= x_k = m * 10^(T/10) / omega_k, that is iff
    u_k >= c_k = G(x_k). Packets with |u_k - c_k| > NAKAGAMI_BAND are
    decided by that comparison; the others go through the exact chain.

    The band. Three things separate the comparison from the exact chain:
    - rounding p to LOG_DECIMALS (9) places moves it by at most 5e-10 dB;
    - p - noise >= threshold and p >= noise + threshold differ by float
      rounding near 100 dB, about 1e-14 dB, as do the float products and
      logarithms that form p and x_k;
    - scipy's G and G^-1 are inexact: |G(G^-1(u)) - u| measured at most
      8e-15 for m in [0.5, 1e4] and u over (0, 1), tails included, and G
      itself within 4e-15 of a 40-digit reference (mpmath) there.
    So a packet whose true g is within a factor 1 + r of x_k, with
    10 log10(1 + r) = 1e-9 dB (r = 2.3e-10), may go either way; outside that
    factor the exact chain's decision is the comparison's. In u, the factor
    spans G(x(1 + r)) - G(x) = integral of y G'(y) dy/y over [x, x(1 + r)]
    <= ln(1 + r) max_y y G'(y) <= r m^m e^-m / Gamma(m) <= r sqrt(m / 2 pi),
    the maximum taken at y = m and the last step by Stirling's lower bound
    on Gamma(m). At m = 1e4 that is 9.2e-9; adding the 2e-14 of G's own
    error in c_k and in the draw leaves the 1e-6 band more than a hundred
    times wider than needed. For m beyond
    NAKAGAMI_BAND_MAX_M, where G was not measured, or not finite, every
    packet takes the exact chain, and so raises the errors it raises.
    """
    omega = _check_omega(to_linear(np.asarray(slow_dbm, dtype=float)))
    u = np.asarray(uniforms, dtype=float)
    if 0.5 <= m <= NAKAGAMI_BAND_MAX_M:
        # np.maximum keeps a nan threshold nan, which delivers nothing, as there.
        threshold = np.maximum(radio.rx_sensitivity_dbm, radio.noise_floor_dbm
                               + snr_threshold_db(radio.data_rate_mbps, snr_table))
        c = special.gammainc(m, m * to_linear(threshold) / omega)
        delivered = u >= c
        exact = np.flatnonzero(np.abs(u - c) <= NAKAGAMI_BAND)
    else:
        delivered, exact = np.empty(u.shape, dtype=bool), np.arange(u.size)
    power = to_db(nakagami_power(omega[exact], m, unit_gamma_draws(m, u[exact])))
    delivered[exact] = reception_codes(np.round(power, LOG_DECIMALS), radio, snr_table) == DELIVERED
    return delivered, exact.size


def is_received(rx_power_dbm: float, radio: RadioParams, snr_table=None):
    """Decide delivery of one packet received at rx_power_dbm.

    Returns (delivered, reason) under the rule of :func:`reception_codes`.
    """
    reason = REASONS[int(reception_codes(rx_power_dbm, radio, snr_table))]
    return reason is DeliveryReason.DELIVERED, reason
