"""Independent verification path: state QFI via the SLD, classical Fisher
information of a measurement, and output states of strategy/process pairs.

Everything here is deliberately decoupled from the SDP machinery so that it
can certify its results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .comb_algebra import FactorizedComb
from .errors import DivergentFisherError, OracleFailureError, RankInstabilityError
from .tensor_algebra import LabeledMatrix, SubsystemLayout, hermitize, permute_vector

SLD_KERNEL_TOL = 1e-12


@dataclass(frozen=True)
class OracleReport:
    """State-QFI evaluation with the attaining measurement's CFI."""

    j_sld: float
    sld: np.ndarray
    measurement_cfi: float
    residuals: dict = field(default_factory=dict)


def cfi(probs: Sequence[tuple[float, float]]) -> float:
    """Classical Fisher information sum q_dot^2 / q of an outcome family."""
    q = np.array([p[0] for p in probs], dtype=float)
    dq = np.array([p[1] for p in probs], dtype=float)
    if np.any(q < -1e-10):
        raise OracleFailureError(f"negative probability {q.min():.3e}")
    if abs(q.sum() - 1.0) > 1e-8:
        raise OracleFailureError(f"probabilities sum to {q.sum():.12f}, not 1")
    if abs(dq.sum()) > 1e-8:
        raise OracleFailureError(f"probability derivatives sum to {dq.sum():.3e}, not 0")
    out = 0.0
    for qi, dqi in zip(q, dq):
        if qi <= 1e-12:
            if abs(dqi) > 1e-10:
                raise DivergentFisherError(
                    f"outcome with q={qi:.3e} but dq={dqi:.3e} diverges"
                )
            continue
        out += dqi * dqi / qi
    return out


def state_qfi_sld(rho: np.ndarray, rho_dot: np.ndarray) -> OracleReport:
    """QFI of a state family from the symmetric logarithmic derivative.

    The SLD is solved entrywise in the eigenbasis of rho; components on the
    kernel (both eigenvalues below tolerance) are set to zero, which leaves
    the QFI unchanged.  Derivative weight connecting kernel to kernel means
    the rank moves and is refused.
    """
    rho = hermitize(np.asarray(rho, dtype=complex))
    rho_dot = hermitize(np.asarray(rho_dot, dtype=complex))
    tr_dot = abs(np.trace(rho_dot).real)
    if tr_dot > 1e-8 * max(1.0, np.linalg.norm(rho_dot)):
        raise OracleFailureError(f"state derivative has trace {tr_dot:.3e}, expected 0")
    w, v = np.linalg.eigh(rho)
    if w[0] < -1e-9 * max(1.0, w[-1]):
        raise OracleFailureError(f"state not PSD: min eigenvalue {w[0]:.3e}")
    d_eig = v.conj().T @ rho_dot @ v
    denom = w[:, None] + w[None, :]
    live = denom > SLD_KERNEL_TOL
    dead_weight = np.linalg.norm(d_eig[~live])
    if dead_weight > 1e-8 * max(1.0, np.linalg.norm(rho_dot)):
        raise RankInstabilityError(
            f"derivative weight {dead_weight:.3e} on the kernel of the state"
        )
    l_eig = np.where(live, 2.0 * d_eig / np.where(live, denom, 1.0), 0.0)
    j = float(np.real(np.sum(w[:, None] * np.abs(l_eig) ** 2)))
    # residual of the defining Lyapunov equation on the support
    recon = 0.5 * (l_eig * denom)
    lyap_resid = float(np.linalg.norm(np.where(live, recon - d_eig, 0.0)))
    sld = v @ l_eig @ v.conj().T
    # CFI of the SLD eigenbasis measurement
    lw, basis = np.linalg.eigh(hermitize(sld))
    q = np.real(np.einsum("ji,jk,ki->i", basis.conj(), rho, basis))
    dq = np.real(np.einsum("ji,jk,ki->i", basis.conj(), rho_dot, basis))
    # strip numerical drift so the validator's exact gates hold; a dead
    # outcome of a nonnegative family has exactly zero derivative, so any
    # residue there is noise
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    dq = np.where(q <= 1e-12, 0.0, dq)
    dq = dq - dq.sum() * q
    meas = cfi(list(zip(q, dq)))
    return OracleReport(
        j_sld=j,
        sld=sld,
        measurement_cfi=meas,
        residuals={"lyapunov": lyap_resid},
    )


def pure_state_qfi(psi: np.ndarray, dpsi: np.ndarray) -> float:
    """4 (<dpsi|dpsi> - |<psi|dpsi>|^2) for a normalized pure family."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dpsi = np.asarray(dpsi, dtype=complex).reshape(-1)
    ov = np.vdot(psi, dpsi)
    return float(4.0 * (np.real(np.vdot(dpsi, dpsi)) - abs(ov) ** 2))


def _process_amplitudes(
    purification: np.ndarray,
    layout: SubsystemLayout,
    fc: FactorizedComb,
    future_labels: Sequence[str],
) -> np.ndarray:
    """The purification as a (process, future) amplitude matrix, its factors
    permuted into the process's label order, then ``future_labels``."""
    order = list(fc.layout.labels) + list(future_labels)
    if list(layout.labels) != order:
        purification = permute_vector(layout, purification, order)
    d_proc = fc.layout.total_dim
    return np.asarray(purification, dtype=complex).reshape(d_proc, layout.total_dim // d_proc)


def _state(fc: FactorizedComb, mp: np.ndarray) -> np.ndarray:
    amps = fc.vectors.T @ mp  # row i: (<conj C_i| (x) I) |P>  on F
    return amps.T @ amps.conj()


def _state_deriv(fc: FactorizedComb, mp: np.ndarray) -> np.ndarray:
    m = (fc.dvectors.T @ mp).T @ (fc.vectors.T @ mp).conj()
    return m + m.conj().T


def output_state(
    purification: np.ndarray,
    layout: SubsystemLayout,
    fc: FactorizedComb,
    future_labels: Sequence[str],
) -> np.ndarray:
    """State on the future factors produced by feeding the process into a
    pure strategy.

    Computes sum_i (<conj C_i| (x) I_F) |P><P| (|conj C_i> (x) I_F).
    """
    return _state(fc, _process_amplitudes(purification, layout, fc, future_labels))


def output_state_deriv(
    purification: np.ndarray,
    layout: SubsystemLayout,
    fc: FactorizedComb,
    future_labels: Sequence[str],
) -> np.ndarray:
    """Analytic d rho / d phi using the comb's derivative vectors."""
    return _state_deriv(fc, _process_amplitudes(purification, layout, fc, future_labels))


def single_channel_qfi_scan(fc: FactorizedComb) -> float:
    """Single-use channel QFI by derivative-free search over the gauge.

    For one channel use, the dual bound collapses to the operator norm of
    the output-traced performance operator, so the task value is
    min over Hermitian h of || Tr_out 4 [(Cdot - i C h)(...)^dag]^T ||.
    This path shares no code with the SDP solver.
    """
    from scipy.optimize import minimize

    from ._basis import product_basis
    from .tensor_algebra import partial_trace

    r = fc.rank
    basis = product_basis((r,))
    out_label = fc.layout.labels[1]

    def bound(x):
        h = basis.matrix(x)
        m = fc.dvectors - 1j * fc.vectors @ h
        omega = 4.0 * (m @ m.conj().T).T
        red = partial_trace(
            LabeledMatrix(fc.layout, omega, hermitian=True), [out_label]
        )
        return float(np.linalg.eigvalsh(red.entries)[-1])

    best = np.inf
    for s in range(4):  # starts: zero, then three fixed spreads
        x0 = np.zeros(basis.n) if s == 0 else ((np.arange(basis.n) % 3) - 1) * 0.3 * s
        res = minimize(
            bound,
            x0,
            method="Nelder-Mead",
            options=dict(maxiter=40000, maxfev=40000, xatol=1e-11, fatol=1e-13),
        )
        best = min(best, float(res.fun))
    return best


@dataclass(frozen=True)
class StrategyVerification:
    j_oracle: float
    relative_gap: float


def verify_strategy(
    purification: np.ndarray,
    layout: SubsystemLayout,
    future_labels: Sequence[str],
    fc: FactorizedComb,
    lambda_claimed: float,
) -> StrategyVerification:
    """Close the loop: score a synthesized strategy with the SLD oracle,
    using the comb's analytic derivative vectors."""
    mp = _process_amplitudes(purification, layout, fc, future_labels)
    rho, rho_dot = _state(fc, mp), _state_deriv(fc, mp)
    tr = float(np.real(np.trace(rho)))
    rho = rho / tr
    rho_dot = rho_dot / tr
    rep = state_qfi_sld(rho, rho_dot)
    gap = abs(rep.j_sld - lambda_claimed) / max(abs(lambda_claimed), 1e-6)
    return StrategyVerification(
        j_oracle=rep.j_sld,
        relative_gap=float(gap),
    )
