"""Parametrized processes used in the benchmark experiments.

Signal channels carry analytic Kraus derivatives; noise channels carry zero
derivatives.  The phase benchmarks put the signal after the noise, the
X-rotation benchmark the noise after the signal.
"""

from __future__ import annotations

import numpy as np

from .comb_algebra import (
    FactorizedComb,
    KrausChannel,
    compose_kraus,
    kraus_product_comb,
    process_layout,
)
from .errors import ConfigError, checked, config_value
from .tensor_algebra import (
    LabeledMatrix,
    SubsystemLayout,
    herm_expm_with_deriv,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

_ZERO2 = np.zeros((2, 2), dtype=complex)


def rz(phi: float) -> KrausChannel:
    """Unitary phase rotation exp(-i phi Z / 2) with its analytic derivative."""
    u = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
    return KrausChannel((u,), (-0.5j * Z @ u,))


def rx(phi: float) -> KrausChannel:
    """Unitary rotation exp(-i phi X / 2)."""
    c, s = np.cos(phi / 2), np.sin(phi / 2)
    u = np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    return KrausChannel((u,), (-0.5j * X @ u,))


def uz(omega: float, t: float) -> KrausChannel:
    """Frequency signal exp(-i omega t Z / 2); derivative is w.r.t. omega."""
    u = np.diag([np.exp(-0.5j * omega * t), np.exp(0.5j * omega * t)])
    return KrausChannel((u,), (-0.5j * t * Z @ u,))


def _check_p(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"noise strength p={p} outside [0, 1]")
    return float(p)


def amplitude_damping(p: float) -> KrausChannel:
    p = _check_p(p)
    k1 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    k2 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
    ks = [k1] if p == 0.0 else [k1, k2]
    return KrausChannel(tuple(ks), tuple(_ZERO2 for _ in ks))


def bit_flip(p: float) -> KrausChannel:
    p = _check_p(p)
    ks = []
    if p < 1.0:
        ks.append(np.sqrt(1 - p) * I2)
    if p > 0.0:
        ks.append(np.sqrt(p) * X)
    return KrausChannel(tuple(ks), tuple(_ZERO2 for _ in ks))


def phase_flip(p: float) -> KrausChannel:
    p = _check_p(p)
    ks = []
    if p < 1.0:
        ks.append(np.sqrt(1 - p) * I2)
    if p > 0.0:
        ks.append(np.sqrt(p) * Z)
    return KrausChannel(tuple(ks), tuple(_ZERO2 for _ in ks))


def nmr_relaxation(t: float, t1: float, t2: float, a0: float) -> KrausChannel:
    """T1/T2 relaxation toward the a0 equilibrium population.

    Kraus form: two jump operators plus two diagonal operators whose
    coefficient vectors are built from alpha, beta, gamma; a closed-form
    limit branch covers the degenerate point gamma = 0, alpha = beta.
    """
    if t < 0:
        raise ConfigError(f"negative evolution time t={t}")
    if t1 <= 0 or t2 <= 0:
        raise ConfigError("relaxation times must be positive")
    alpha = (1 - a0) * np.exp(-t / t1) + a0
    beta = a0 * np.exp(-t / t1) + 1 - a0
    gamma = 2 * np.exp(-t / t2)
    k1 = np.sqrt(max(1 - alpha, 0.0)) * np.array([[0, 0], [1, 0]], dtype=complex)
    k2 = np.sqrt(max(1 - beta, 0.0)) * np.array([[0, 1], [0, 0]], dtype=complex)
    delta = alpha - beta
    s = np.hypot(gamma, delta)
    if s <= 1e-14:
        # degenerate denominators: both diagonal operators collapse onto
        # the limits ( -Z and I ) with equal weight (alpha + beta) / 4
        w = np.sqrt((alpha + beta) / 4.0)
        k3 = w * np.diag([-1.0, 1.0]).astype(complex)
        k4 = w * I2
    else:
        k3 = _nmr_diag_kraus(alpha, beta, gamma, delta, -s)
        k4 = _nmr_diag_kraus(alpha, beta, gamma, delta, +s)
    ks = tuple(k for k in (k1, k2, k3, k4) if np.linalg.norm(k) > 1e-14)
    return KrausChannel(ks, tuple(_ZERO2 for _ in ks))


def _nmr_diag_kraus(alpha, beta, gamma, delta, s_signed) -> np.ndarray:
    num = alpha + beta + s_signed
    den = gamma**2 + (delta + s_signed) ** 2
    coef = np.sqrt(max(num, 0.0) / den) / np.sqrt(2.0)
    return coef * np.diag([delta + s_signed, gamma]).astype(complex)


def ad_phase_channel(p: float, phi: float) -> KrausChannel:
    """Phase signal preceded by amplitude damping."""
    return compose_kraus(rz(phi), amplitude_damping(p))


def bf_phase_channel(p: float, phi: float) -> KrausChannel:
    """Phase signal preceded by bit flip noise."""
    return compose_kraus(rz(phi), bit_flip(p))


def pf_rx_channel(p: float, phi: float) -> KrausChannel:
    """X-rotation signal followed by phase flip noise."""
    return compose_kraus(phase_flip(p), rx(phi))


def build_channel(doc: dict, phi: float) -> KrausChannel:
    """Materialize a channel document at the working point: ``kind`` names
    the channel, its other keys are its parameters, and a ``composed``
    channel applies its ``parts`` right to left."""
    checked(doc, "object", "a process or part")
    kind = config_value(doc, "kind", "string", what="process")

    def p(key: str, *default: float) -> float:
        return config_value(doc, key, "number", *default, what=f"channel {kind!r}")

    if kind == "rz":
        return rz(phi)
    if kind == "rx":
        return rx(phi)
    if kind == "uz":
        return uz(phi, p("t"))
    if kind == "amplitude_damping":
        return amplitude_damping(p("p"))
    if kind == "bit_flip":
        return bit_flip(p("p"))
    if kind == "phase_flip":
        return phase_flip(p("p"))
    if kind == "nmr_relaxation":
        return nmr_relaxation(p("t"), p("T1", 3.2), p("T2", 1.1), p("a0", 0.5))
    if kind == "composed":
        parts = config_value(doc, "parts", "array", [], "process")
        if not parts:
            raise ConfigError("composed channel needs parts")
        out = build_channel(parts[-1], phi)
        for part in reversed(parts[:-1]):
            out = compose_kraus(build_channel(part, phi), out)
        return out
    raise ConfigError(f"unknown channel kind {kind!r}")


def nonidentical_pair(p1: float, p2: float, phi: float) -> FactorizedComb:
    """Two-slot product of phase channels with different damping strengths.

    Slot 1 carries noise p1, slot 2 noise p2.  Sequential strategies should
    be scored on both slot orders and the better value reported.
    """
    return kraus_product_comb([ad_phase_channel(p1, phi), ad_phase_channel(p2, phi)])


def swap_slot_order(fc: FactorizedComb) -> FactorizedComb:
    """Exchange the two slots of a two-slot comb, relabeled canonically."""
    if len(fc.layout) != 4:
        raise ConfigError("slot swap expects a two-slot comb")
    moved = fc.reorder(["3", "4", "1", "2"])
    relabeled = SubsystemLayout(
        tuple((str(k + 1), d) for k, (_, d) in enumerate(moved.layout.factors))
    )
    return FactorizedComb(relabeled, moved.vectors, moved.dvectors)


def nonmarkovian_swap_comb(
    phi: float, g: float, t: float, markovian: bool = False
) -> FactorizedComb:
    """Two-step comb from a system-environment exchange coupling.

    The joint generator is phi Z(x)I + g (XX + YY + ZZ); the environment
    starts in |0> and the control slot sits at time t/2 (two half-evolution
    segments).  The non-Markovian variant keeps the environment wire across
    the slot; the Markovian one re-prepares |0> in the middle.  Derivatives
    are with respect to phi via the spectral divided-difference rule.
    """
    h = LabeledMatrix(
        SubsystemLayout.of(("S", 2), ("E", 2)),
        phi * np.kron(Z, I2) + g * (np.kron(X, X) + np.kron(Y, Y) + np.kron(Z, Z)),
        hermitian=True,
    )
    hdot = LabeledMatrix(h.layout, np.kron(Z, I2), hermitian=True)
    u, du = herm_expm_with_deriv(h, hdot, t / 2.0)
    ue, due = u.entries.reshape(2, 2, 2, 2), du.entries.reshape(2, 2, 2, 2)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    # v[s', e', s] = <s' e'| U |s 0>
    v = np.einsum("abcd,d->abc", ue, ket0)
    dv = np.einsum("abcd,d->abc", due, ket0)
    layout = process_layout([(2, 2), (2, 2)])
    if markovian:
        ks = tuple(v[:, e, :] for e in range(2))
        dks = tuple(dv[:, e, :] for e in range(2))
        step = KrausChannel(ks, dks)
        return kraus_product_comb([step, step], layout)
    # total isometry H1 (x) H3 -> H2 (x) H4 (x) E': chain the two segments
    # over the environment wire; comb vectors are the E' components
    # T[x2, x4, e', x1, x3] = sum_e U[(x4 e'), (x3 e)] V[x2, e, x1]
    t_full = np.einsum("dfce,bea->bdfac", ue, v, optimize=True)
    dt_full = np.einsum("dfce,bea->bdfac", due, v, optimize=True) + np.einsum(
        "dfce,bea->bdfac", ue, dv, optimize=True
    )
    # axes of t_full: (x2, x4, e', x1, x3); vectors live on (1, 2, 3, 4)
    cols, dcols = [], []
    for ep in range(2):
        cols.append(np.transpose(t_full[:, :, ep, :, :], (2, 0, 3, 1)).reshape(-1))
        dcols.append(np.transpose(dt_full[:, :, ep, :, :], (2, 0, 3, 1)).reshape(-1))
    return FactorizedComb(layout, np.stack(cols, axis=1), np.stack(dcols, axis=1))
