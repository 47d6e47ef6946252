"""Dense spectral primitives: norms, normal eigensystems, spectrum sets.

Everything here works on finite square complex matrices (numpy arrays
validated by as_matrix).  Default tolerances are absolute and tuned for
operators of norm up to about 1e3; callers above that scale should
pre-normalize.

Spectra are returned as SpectrumSet values: a canonicalized array of
points together with the resolution at which nearby points were merged
and a flag marking sets that sample a possibly larger object (finite
sections, truncated parameter windows).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySet, NoConvergence, NotNormal, _Frozen

DEFAULT_RESOLUTION = 1e-10

_CLUSTER_FLOOR = 1e-8  # relative width for joint-diagonalization clusters


def as_matrix(entries) -> np.ndarray:
    """Validate and return a square complex matrix.

    Rejects non-square and non-finite input at construction time so the
    operations below can assume a clean operand.
    """
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def self_adjoint(m: np.ndarray) -> np.ndarray:
    """Per matrix of an (..., n, n) stack: equal to its adjoint entry for entry, exactly."""
    t = m.swapaxes(-1, -2)  # views: a real stack's .imag would be a fresh array of zeros
    same = (m.real == t.real).all(axis=(-2, -1))
    return same & (m.imag == -t.imag).all(axis=(-2, -1)) if np.iscomplexobj(m) else same


def op_norm(a) -> float:
    """Operator norm (largest singular value)."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    try:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK breakdown
        raise NoConvergence(f"singular value iteration failed: {exc}") from exc


class SpectrumSet(_Frozen):
    """Canonicalized finite set of spectral points.

    values     -- read-only array sorted by (real, imag), no two points within `resolution`;
                  float64 when every imaginary part is +0.0, complex128 otherwise
    resolution -- merge radius used during canonicalization (>= 0)
    truncated  -- True when the set samples a larger / unbounded object
    """

    def __init__(self, values: np.ndarray, resolution: float, truncated: bool = False):
        if resolution < 0:
            raise ValueError("resolution must be nonnegative")
        values = np.array(values, dtype=complex if np.iscomplexobj(values) else float)
        if values.dtype == complex and not (values.imag.any() or np.signbit(values.imag).any()):
            values = values.real.copy()
        values.flags.writeable = False
        self._set(values=values, resolution=resolution, truncated=truncated)

    @property
    def points(self) -> tuple[complex, ...]:
        return tuple(self.values.astype(complex).tolist())

    def __eq__(self, other) -> bool:
        same = isinstance(other, SpectrumSet) and self.points == other.points
        return same and (self.resolution, self.truncated) == (other.resolution, other.truncated)

    def __repr__(self) -> str:  # every digit, where numpy's array repr rounds and elides
        fields = f"points={self.points!r}, resolution={self.resolution!r}"
        return f"SpectrumSet({fields}, truncated={self.truncated!r})"

    @classmethod
    def canonical(
        cls,
        points: Iterable[complex],
        resolution: float = DEFAULT_RESOLUTION,
        truncated: bool = False,
    ) -> "SpectrumSet":
        """Sort by (real, imag) and greedily merge points within resolution.

        The kept representative of each cluster is its smallest member in
        the (real, imag) order, which makes the result independent of the
        input ordering.  On a 1-D float array every value more than
        resolution above its predecessor is kept, and the greedy loop runs
        only over the others, each compared with the last kept value.
        """
        if isinstance(points, np.ndarray) and points.ndim == 1 and points.dtype == float:
            values = _sorted(points)
            keep = np.ones(len(values), dtype=bool)
            for i in (np.flatnonzero(np.diff(values) <= resolution) + 1).tolist():
                if keep[i - 1]:
                    last = values[i - 1]
                keep[i] = values[i] - last > resolution
            return cls(values[keep], float(resolution), bool(truncated))
        pts = sorted((complex(p) for p in points), key=lambda z: (z.real, z.imag))
        kept: list[complex] = []
        for p in pts:
            merged = False
            for q in reversed(kept):
                if p.real - q.real > resolution:
                    break
                if abs(p - q) <= resolution:
                    merged = True
                    break
            if not merged:
                kept.append(p)
        return cls(kept, float(resolution), bool(truncated))

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict:
        return {"points": self.values, "resolution": self.resolution, "truncated": self.truncated}


def _sorted(values: np.ndarray) -> np.ndarray:
    """A 1-D float array sorted, bit for bit as np.sort(values, kind="stable").

    numpy's default (SIMD) sort may reorder +-0.0 and rewrite NaN payloads; equal
    non-zero floats are bitwise equal and NaNs go last, so both runs are copied back.
    """
    out = np.sort(values)
    lo, hi = out.searchsorted(0.0), out.searchsorted(0.0, "right")
    if hi - lo > 1:
        out[lo:hi] = values[values == 0.0]
    if len(out) and np.isnan(out[-1]):
        out[np.isnan(out)] = values[np.isnan(values)]
    return out


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted values of a 1-D float array without exact repeats; the first occurrence is kept.

    SpectrumSet.canonical merges exact repeats into their first occurrence
    anyway (_sorted keeps +-0.0 in input order), so dropping them changes nothing.
    """
    values = _sorted(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def union_spectra(parts: Sequence[SpectrumSet], resolution: float | None = None) -> SpectrumSet:
    """Canonicalized union of several spectrum sets."""
    res = max((s.resolution for s in parts), default=0.0) if resolution is None else resolution
    values = np.concatenate([np.zeros(0), *(s.values for s in parts)])
    return SpectrumSet.canonical(values, res, any(s.truncated for s in parts))


def _hermitian_eigensystem(h: np.ndarray, vectors: bool = True):
    try:
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc


def _times_4_to(x: float, e: int) -> str:
    """x * 4^e in the .3e layout, also where it lies beyond the float range."""
    v = x * 2.0**e * 2.0**e
    if math.isinf(v):
        from decimal import Decimal  # imported here: only an overflowing power reads it
        return f"{Decimal(x) * Decimal(4) ** e:.3e}"
    return f"{v:.3e}"


def normal_eigensystem(a, tol: float = DEFAULT_RESOLUTION) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and an orthonormal eigenbasis of a normal matrix.

    The matrix is split into commuting self-adjoint parts
    h = (a + a*)/2 and k = (a - a*)/(2i); h is diagonalized, then k is
    diagonalized inside each eigenvalue cluster of h.  Eigenvalues are
    recovered as Rayleigh quotients in the joint basis and returned
    sorted by (real, imag) together with the unitary of eigenvectors.

    Raises NotNormal when ||a*a - aa*|| > tol * ||a||^2.  A matrix equal
    to its adjoint entry for entry, as the image of a self-adjoint element
    under a *-representation is, is normal by construction: it goes
    straight to eigh, since the callers read the vectors, and runs no SVD.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if m.size == 0:
        return np.zeros(0, dtype=complex), np.zeros((0, 0), dtype=complex)
    adj = m.conj().T
    hermitian = bool(self_adjoint(m))
    if hermitian and not m.any():
        return np.zeros(n, dtype=complex), np.eye(n, dtype=complex)
    if not hermitian:
        # The SVDs run on u = m / 2^e, which is exact: a*a - aa* can overflow
        # although a is finite, and every test reads the same in these units.
        e = min(max(math.frexp(float(np.abs((m.real, m.imag)).max()))[1], -1022), 1023)
        u = m * 2.0**-e
        u_adj = u.conj().T
        unit = op_norm(u)  # positive: m has a nonzero entry
        defect = op_norm(u_adj @ u - u @ u_adj)
        if defect > tol * unit * unit:
            raise NotNormal(
                f"commutator norm {_times_4_to(defect, e)} exceeds {tol:.1e} * ||a||^2 = "
                f"{_times_4_to(tol * unit * unit, e)}"
            )
    if hermitian or op_norm(u - u_adj) <= tol * unit:
        # halving first: m + adj can overflow although m is finite
        w, v = _hermitian_eigensystem(m if hermitian else m / 2.0 + adj / 2.0)
        order = np.argsort(w, kind="stable")
        return w[order].astype(complex), v[:, order]

    # h and k in the units of u: m + adj can overflow although m is finite
    h = (u + u_adj) / 2.0
    k = (u - u_adj) / 2.0j
    wh, v = _hermitian_eigensystem(h)
    cluster_tol = max(_CLUSTER_FLOOR, 10.0 * tol) * unit
    start = 0
    for i in range(1, n + 1):
        if i == n or wh[i] - wh[i - 1] > cluster_tol:
            if i - start > 1:
                block = v[:, start:i]
                kc = block.conj().T @ k @ block
                kc = (kc + kc.conj().T) / 2.0
                _, u = _hermitian_eigensystem(kc)
                v[:, start:i] = block @ u
            start = i
    eigs = np.einsum("ij,ik,kj->j", v.conj(), m, v)
    order = sorted(range(n), key=lambda j: (eigs[j].real, eigs[j].imag))
    return eigs[order], v[:, order]


def eig_normal(a, tol: float = DEFAULT_RESOLUTION) -> SpectrumSet:
    """Spectrum of a normal matrix as a SpectrumSet at resolution tol."""
    m = as_matrix(a)
    if m.any() and self_adjoint(m):  # no vectors are read: eigvalsh, as in spectrum_union
        return SpectrumSet.canonical(_hermitian_eigensystem(m, vectors=False), tol)
    eigs, _ = normal_eigensystem(m, tol)
    return SpectrumSet.canonical(eigs, tol, truncated=False)


def _directed_real(a: np.ndarray, b: np.ndarray) -> float:
    """max over a of distance to sorted real b."""
    idx = np.searchsorted(b, a)
    idx_lo = np.clip(idx - 1, 0, len(b) - 1)
    idx_hi = np.clip(idx, 0, len(b) - 1)
    d = np.minimum(np.abs(a - b[idx_lo]), np.abs(a - b[idx_hi]))
    return float(np.max(d))


def hausdorff(s1: SpectrumSet, s2: SpectrumSet) -> float:
    """Hausdorff distance between two nonempty spectrum sets.

    Raises EmptySet when either side has no points (the distance to an
    empty spectrum is not a number the callers can act on).
    """
    if not len(s1) or not len(s2):
        raise EmptySet("hausdorff distance needs two nonempty spectra")
    a, b = s1.values, s2.values
    if a.dtype == b.dtype == float:
        a, b = np.sort(a), np.sort(b)
        return max(_directed_real(a, b), _directed_real(b, a))
    def directed(x: np.ndarray, y: np.ndarray) -> float:
        # chunked pairwise distances; sets here are desk-sized
        chunks = (x[i : i + 512, None] for i in range(0, len(x), 512))
        return float(max(np.abs(c - y[None, :]).min(axis=1).max() for c in chunks))

    return max(directed(a, b), directed(b, a))
