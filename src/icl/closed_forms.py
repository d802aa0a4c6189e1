"""Closed forms of the induced-coherence network, each written once.

Every function broadcasts over floats or arrays of the gains V_A, V_B, V_C,
the B-arm attenuation kappa, the transmittance T, the background N_B and the
phase phi, and validates nothing.  ``v_c`` selects the three-source layout,
``kappa`` the attenuated one.  Operation order is part of the CSV contract.

Square roots of products of inputs are taken factor by factor, so tiny
gains such as V_A = V_B = 1e-200 do not underflow to a wrong zero.
"""

import numpy as np


def _seeded(v_a, T, n_b):
    """1 + <n> of the idler that seeds source B."""
    return 1.0 + T * v_a + (1.0 - T) * n_b


def arm_moments(v_a, v_b, T, n_b, *, v_c=None, kappa=None) -> tuple:
    """(N_1, N_2, |<a_1^dag a_2>|) of the signal arms before the splitter."""
    n2 = v_b * _seeded(v_a, T, n_b)
    coh = np.sqrt(T * (1.0 + v_a)) * np.sqrt(v_a) * np.sqrt(v_b)
    if kappa is not None:
        return v_a, kappa * n2, np.sqrt(kappa) * coh
    if v_c is not None:
        return (1.0 + v_c) * v_a + v_c, n2, np.sqrt(1.0 + v_c) * coh
    return v_a, n2, coh


def singles(v_a, v_b, T, n_b, phi, *, v_c=None, kappa=None) -> tuple:
    """Singles intensities (n_plus, n_minus) at fringe phase phi."""
    n1, n2, coh = arm_moments(v_a, v_b, T, n_b, v_c=v_c, kappa=kappa)
    cross = 2.0 * coh * np.cos(2.0 * np.asarray(phi))
    return 0.5 * (n1 + n2 + cross), 0.5 * (n1 + n2 - cross)


def coherence_bound(v_a, T, n_b):
    """First-order coherence of the two-source signal arms; free of V_B."""
    return np.sqrt(T * (1.0 + v_a) / _seeded(v_a, T, n_b))


def optimal_attenuated_visibility(v_a, T, n_b):
    """The coherence bound, or 0 when arm A is dark; see ``metrics``."""
    return np.where(np.asarray(v_a) > 0.0, coherence_bound(v_a, T, n_b), 0.0)


@np.errstate(all="ignore")
def snr_unconditional(v_a, v_b, T, n_b, phi):
    """Power-ratio difference SNR, 0 when dark; N_B = 0 is the pair limit."""
    denom = v_a + v_b + T * v_a * v_b + (1.0 - T) * n_b * v_b
    cos_sq = np.float_power(np.cos(2.0 * np.asarray(phi)), 2.0)
    power = 4.0 * T * (1.0 + v_a) * v_a * v_b * cos_sq / denom
    return np.where(denom <= 0.0, 0.0, power)


# Overflowing gains and dark heralds (n_I = 0) give inf or nan silently.
@np.errstate(all="ignore")
def herald_terms(v_a, v_b, T) -> tuple:
    """Mode-matched herald terms (n_I, s0, s1, c0, c1), free of N_B, with
    <n_S> = s0 + s1 cos(2 phi) and |<b_I b_S>|^2 = c0 + c1 cos(2 phi)."""
    u_a, u_b = 1.0 + v_a, 1.0 + v_b
    s1 = np.sqrt(T * u_a) * np.sqrt(v_a) * np.sqrt(v_b)
    n_i = u_b * T * v_a + v_b
    s0 = 0.5 * (v_a + v_b + T * v_a * v_b)
    c0 = 0.5 * u_b * T * u_a * (T * u_a * v_b + v_a)
    return n_i, s0, s1, c0, u_b * T * u_a * s1


@np.errstate(all="ignore")
def herald_moments(v_a, v_b, T, phi) -> tuple:
    """(<n_I>, <n_S>, |<b_I b_S>|^2) of the mode-matched herald at phase phi."""
    n_i, s0, s1, c0, c1 = herald_terms(v_a, v_b, T)
    cos2 = np.cos(2.0 * np.asarray(phi))
    return n_i, s0 + s1 * cos2, c0 + c1 * cos2


@np.errstate(all="ignore")
def heralded_signal_mean(v_a, v_b, T, phi, eta=1.0, nu=0.0):
    """Click-conditioned <n_S> + eta |<b_I b_S>|^2 / (eta <n_I> + nu) at
    phase phi, for an on/off herald of efficiency eta and dark-count mean
    nu; nan where the herald mode is empty (n_I = 0)."""
    n_i, n_s, corr_sq = herald_moments(v_a, v_b, T, phi)
    return np.where(n_i > 0.0, n_s + eta * corr_sq / (eta * n_i + nu), np.nan)


@np.errstate(all="ignore")
def heralded_fringe(v_a, v_b, T) -> tuple:
    """(<n_I>, dc, amplitude) of the click-conditioned fringe; dc and
    amplitude are nan where the herald mode is empty."""
    n_i, s0, s1, c0, c1 = herald_terms(v_a, v_b, T)
    return n_i, s0 + np.divide(c0, n_i), s1 + np.divide(c1, n_i)


def fringe_snr(dc, amplitude, phi):
    """Power-ratio difference SNR 2 amplitude^2 cos^2(2 phi) / dc of a fringe
    dc + amplitude cos(2 phi) on each output, under shot noise."""
    cos_sq = np.float_power(np.cos(2.0 * np.asarray(phi)), 2.0)
    return 2.0 * amplitude**2 * cos_sq / dc


@np.errstate(all="ignore")
def snr_heralded_general(v_a, v_b, T, phi):
    """Difference SNR of the mode-matched heralded fringe; nan where the
    herald mode is empty."""
    _, dc, amplitude = heralded_fringe(v_a, v_b, T)
    return fringe_snr(dc, amplitude, phi)


@np.errstate(all="ignore")
def heralded_visibility_pair_limit(v_a, v_b, T):
    """Low-brightness heralded contrast s1 / s0, 0 when dark."""
    _, s0, s1, _, _ = herald_terms(v_a, v_b, T)
    return np.where(s0 <= 0.0, 0.0, s1 / s0)
