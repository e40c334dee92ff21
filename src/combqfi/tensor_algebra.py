"""Complex-Hermitian matrix algebra over labeled tensor-product spaces.

Index convention (the single source of truth for every reshape in the
package): a matrix on factors ``(l_1, ..., l_L)`` with dims
``(d_1, ..., d_L)`` is stored dense with the row index ``(i_1, ..., i_L)``
flattened row-major (``i_1`` slowest), and identically for columns.  The
tensor view of an ``(D, D)`` matrix is the ``2L``-axis array of shape
``(d_1, ..., d_L, d_1, ..., d_L)`` with row axes first.  Vectors on a
layout use the same row-major flattening of ``(i_1, ..., i_L)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, LabelNotFoundError

_HERMITICITY_REJECT_RTOL = 1e-8


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered labeled tensor factors with dimensions."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [l for l, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in layout: {labels}")
        for l, d in self.factors:
            if d < 1:
                raise ValueError(f"factor {l!r} has non-positive dim {d}")

    @staticmethod
    def of(*factors: tuple[str, int]) -> "SubsystemLayout":
        return SubsystemLayout(tuple((str(l), int(d)) for l, d in factors))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64)) if self.factors else 1

    def __len__(self) -> int:
        return len(self.factors)

    def position(self, label: str) -> int:
        for k, (l, _) in enumerate(self.factors):
            if l == label:
                return k
        raise LabelNotFoundError(label)

    def positions(self, labels: Iterable[str]) -> list[int]:
        return [self.position(l) for l in labels]

    def dim(self, label: str) -> int:
        return self.factors[self.position(label)][1]

    def has(self, label: str) -> bool:
        return label in self.labels

    def drop(self, labels: Iterable[str]) -> "SubsystemLayout":
        gone = set(labels)
        for l in gone:
            self.position(l)  # raises on unknown label
        return SubsystemLayout(tuple(f for f in self.factors if f[0] not in gone))

    def restrict(self, labels: Sequence[str]) -> "SubsystemLayout":
        """Sub-layout of the given labels in their current order."""
        keep = set(labels)
        return SubsystemLayout(tuple(f for f in self.factors if f[0] in keep))

    def reorder(self, labels: Sequence[str]) -> "SubsystemLayout":
        if set(labels) != set(self.labels) or len(labels) != len(self.labels):
            raise ValueError("reorder must list every label exactly once")
        return SubsystemLayout(tuple((l, self.dim(l)) for l in labels))

    def tensor(self, other: "SubsystemLayout") -> "SubsystemLayout":
        return SubsystemLayout(self.factors + other.factors)


def _check_square(layout: SubsystemLayout, entries: np.ndarray) -> None:
    D = layout.total_dim
    if entries.shape != (D, D):
        raise DimensionMismatchError(
            f"entries shape {entries.shape} does not match layout dim {D}"
        )


@dataclass(frozen=True)
class LabeledMatrix:
    """Dense complex matrix carried on a labeled tensor-product space.

    Hermitian-flagged instances are symmetrized at construction; inputs
    violating Hermiticity beyond numerical drift are rejected.
    """

    layout: SubsystemLayout
    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        _check_square(self.layout, entries)
        if self.hermitian:
            resid, herm = hermitian_part(entries)
            scale = max(np.linalg.norm(entries), 1e-300)
            if resid > _HERMITICITY_REJECT_RTOL * scale:
                raise ValueError(
                    f"matrix flagged Hermitian but ||M - M^dag|| = {resid:.3e} "
                    f"(relative {resid / scale:.3e})"
                )
            entries = herm
        object.__setattr__(self, "entries", entries)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def scalar(self) -> complex:
        if self.layout.total_dim != 1:
            raise DimensionMismatchError("scalar() requires a trivial layout")
        return complex(self.entries[0, 0])

    def reorder(self, labels: Sequence[str]) -> "LabeledMatrix":
        return permute_factors(self, labels)


def identity(layout: SubsystemLayout) -> LabeledMatrix:
    return LabeledMatrix(layout, np.eye(layout.total_dim, dtype=complex), hermitian=True)


def tensor(a: LabeledMatrix, b: LabeledMatrix) -> LabeledMatrix:
    return LabeledMatrix(
        a.layout.tensor(b.layout),
        np.kron(a.entries, b.entries),
        a.hermitian and b.hermitian,
    )


def _as_tensor(entries: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    return entries.reshape(tuple(dims) + tuple(dims))


def partial_trace(m: LabeledMatrix, labels: Iterable[str]) -> LabeledMatrix:
    """Trace out the given factors; the result lives on the remaining ones."""
    labels = list(labels)
    pos = m.layout.positions(labels)
    dims = m.layout.dims
    L = len(dims)
    t = _as_tensor(m.entries, dims)
    subs = list(range(L)) + list(range(L, 2 * L))
    for k in pos:
        subs[L + k] = subs[k]
    keep = [k for k in range(L) if k not in pos]
    out_subs = [subs[k] for k in keep] + [subs[L + k] for k in keep]
    res = np.einsum(t, subs, out_subs)
    new_layout = m.layout.drop(labels)
    D = new_layout.total_dim
    return LabeledMatrix(new_layout, res.reshape(D, D), m.hermitian)


def permute_factors(m: LabeledMatrix, new_order: Sequence[str]) -> LabeledMatrix:
    """Reorder tensor factors; entries are permuted accordingly."""
    new_layout = m.layout.reorder(new_order)
    return LabeledMatrix(
        new_layout, permute_entries(m.layout, m.entries, new_order), m.hermitian
    )


def permute_entries(
    layout: SubsystemLayout, entries: np.ndarray, new_order: Sequence[str]
) -> np.ndarray:
    """Reorder the factors of a matrix on the layout, as a plain array."""
    perm = layout.positions(new_order)
    L = len(perm)
    t = _as_tensor(entries, layout.dims).transpose(perm + [L + k for k in perm])
    D = layout.total_dim
    return np.ascontiguousarray(t.reshape(D, D))


def permute_vector(
    layout: SubsystemLayout, vec: np.ndarray, new_order: Sequence[str]
) -> np.ndarray:
    """Reorder the factors of a vector on the layout (row-major convention)."""
    perm = layout.positions(new_order)
    t = np.asarray(vec).reshape(layout.dims)
    return np.ascontiguousarray(t.transpose(perm).reshape(-1))


def neutralize(m: LabeledMatrix, labels: Iterable[str]) -> LabeledMatrix:
    """Replace the given factors by maximally mixed marginals.

    Returns ``(tensor of I/d over labels) (x) Tr_labels M`` reassembled in
    the original factor order; the total trace is preserved.
    """
    labels = list(labels)
    if not labels:
        return m
    pos = set(m.layout.positions(labels))
    traced = partial_trace(m, labels)
    parts: LabeledMatrix | None = None
    for k, (lab, d) in enumerate(m.layout.factors):
        if k not in pos:
            continue
        piece = LabeledMatrix(
            SubsystemLayout.of((lab, d)),
            np.eye(d, dtype=complex) / d,
            hermitian=True,
        )
        parts = piece if parts is None else tensor(parts, piece)
    assert parts is not None
    if traced.layout.factors:
        combined = tensor(parts, traced)
    else:
        combined = LabeledMatrix(parts.layout, parts.entries * traced.scalar(), m.hermitian)
    return permute_factors(combined, m.layout.labels)


def partial_transpose(m: LabeledMatrix, labels: Iterable[str]) -> LabeledMatrix:
    """Transpose the given factors in place; an involution."""
    labels = list(labels)
    if not labels:
        return m
    pos = m.layout.positions(labels)
    dims = m.layout.dims
    L = len(dims)
    axes = list(range(2 * L))
    for k in pos:
        axes[k], axes[L + k] = axes[L + k], axes[k]
    t = _as_tensor(m.entries, dims).transpose(axes)
    D = m.layout.total_dim
    return LabeledMatrix(m.layout, np.ascontiguousarray(t.reshape(D, D)), m.hermitian)


def _require_hermitian(entries: np.ndarray, what: str) -> np.ndarray:
    resid, herm = hermitian_part(entries)
    scale = max(np.linalg.norm(entries), 1e-300)
    if resid > _HERMITICITY_REJECT_RTOL * scale:
        raise ValueError(f"{what} must be Hermitian (residual {resid:.3e})")
    return herm


def herm_expm(h: LabeledMatrix, t: float) -> LabeledMatrix:
    """Unitary ``exp(-i H t)`` of a Hermitian generator, via eigendecomposition."""
    hm = _require_hermitian(h.entries, "herm_expm input")
    w, v = np.linalg.eigh(hm)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return LabeledMatrix(h.layout, u)


def herm_expm_with_deriv(
    h: LabeledMatrix, hdot: LabeledMatrix, t: float
) -> tuple[LabeledMatrix, LabeledMatrix]:
    """``exp(-i H t)`` and its derivative along ``hdot``.

    Uses the spectral divided-difference formula: in the eigenbasis of H the
    derivative entry (a, b) is ``Hdot_ab (e^{-i w_a t} - e^{-i w_b t}) / (w_a - w_b)``
    with the confluent limit ``-i t e^{-i w_a t} Hdot_aa`` on the diagonal.
    """
    hm = _require_hermitian(h.entries, "herm_expm input")
    hd = _require_hermitian(hdot.entries, "herm_expm derivative direction")
    w, v = np.linalg.eigh(hm)
    ph = np.exp(-1j * w * t)
    u = (v * ph) @ v.conj().T
    dw = w[:, None] - w[None, :]
    num = ph[:, None] - ph[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        dd = np.where(np.abs(dw) > 1e-12, num / np.where(dw == 0, 1.0, dw), 0.0)
    conf = -1j * t * ph
    dd = dd + np.where(np.abs(dw) <= 1e-12, conf[:, None] * np.ones_like(dd), 0.0)
    hd_eig = v.conj().T @ hd @ v
    du = v @ (hd_eig * dd) @ v.conj().T
    return LabeledMatrix(h.layout, u), LabeledMatrix(h.layout, du)


def realify(h: np.ndarray) -> np.ndarray:
    """Embed a complex Hermitian matrix as a real symmetric one of doubled side.

    ``[[Re H, -Im H], [Im H, Re H]]``; the spectrum is that of H with every
    eigenvalue doubled in multiplicity, so PSD-ness is preserved both ways.
    """
    h = np.asarray(h, dtype=complex)
    _require_hermitian(h, "realify input")
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def _adjoint(m: np.ndarray) -> np.ndarray:
    """M^dag as a new C-contiguous array: M^T copied once, then conjugated in
    place, in the dtype of 0.5 * M (a real M stays real)."""
    out = np.array(m.T, dtype=np.result_type(m, 0.5), order="C")
    return np.conjugate(out, out=out)


def hermitian_part(entries: np.ndarray) -> tuple[float, np.ndarray]:
    """(||M - M^dag||, (M + M^dag) / 2), both from one contiguous M^dag;
    bitwise equal to the two expressions."""
    m = np.asarray(entries)
    herm = _adjoint(m)
    resid = float(np.linalg.norm(m - herm))
    herm += m
    herm *= 0.5
    return resid, herm


def hermitize(entries: np.ndarray) -> np.ndarray:
    """Symmetrize numerical drift away, (M + M^dag) / 2; does not validate."""
    m = np.asarray(entries)
    herm = _adjoint(m)
    herm += m
    herm *= 0.5
    return herm
