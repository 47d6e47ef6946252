"""Self-adjoint observables evaluated fiberwise through the Cayley map.

An observable is a tuple of fibers, each either a self-adjoint matrix
or the formal infinite fiber.  Spectra go through the bounded transform
    w = (lam + i) / (lam - i),
whose image is the unit circle minus the point 1; the infinite fiber is
exactly the constant 1 there and has empty spectrum.  Fiber spectra come
from stacked eigvalsh calls (diagonal fibers: their sorted real parts), and
the transform inverts exactly: nothing is lost for bounded fibers, while
numerically huge eigenvalues land within the discard radius of w = 1 and are
reported through the truncated flag.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

import numpy as np

from .errors import NotSelfAdjoint, _Frozen
from .spectral import DEFAULT_RESOLUTION, SpectrumSet, _distinct, as_matrix, union_spectra

_SELFADJOINT_TOL = 1e-10


class _InfiniteFiber:
    """Marker for the formal infinite fiber; compares by identity."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITE"


INFINITE = _InfiniteFiber()


def check_self_adjoint(stack: np.ndarray) -> None:
    """Raise for the first fiber of an (m, d, d) stack, or (m, d) diagonals, that is not
    finite or not self-adjoint: max |f - f*| must stay within 1e-10 * max(1, max |f|).

    The checks run over the whole stack, a 1 MiB slice at a time.
    """
    step = max(1, 2**16 // max(1, stack[0].size))
    axes = tuple(range(1, stack.ndim))
    for start in range(0, len(stack), step):
        part = stack[start : start + step]
        finite = np.isfinite(part).all(axis=axes)
        head = part if finite.all() else part[: int(np.argmin(finite))]
        scale = np.maximum(1.0, np.abs(head).max(axis=axes))
        gap = np.abs(head - head.conj().swapaxes(1, -1)).max(axis=axes)  # no swap on diagonals
        bad = gap > _SELFADJOINT_TOL * scale
        if bad.any():
            i = int(np.argmax(bad))
            raise NotSelfAdjoint(
                f"fiber is not self-adjoint (asymmetry {gap[i]:.3e} at scale {scale[i]:.3e})"
            )
        if len(head) < len(part):
            raise ValueError("matrix entries must be finite")


class Observable(_Frozen):
    """Fiberwise presentation of a self-adjoint observable."""

    _fields = ("fibers", "truncated", "label")

    def __init__(self, fibers: tuple, truncated: bool = False, label: str = ""):
        if not fibers:
            raise ValueError("an observable needs at least one fiber")
        checked = []
        for f in fibers:
            if f is not INFINITE:
                f = as_matrix(f)
                f = f if f.imag.any() else f.real.copy()  # real by value, -0.0 too: real LAPACK
                check_self_adjoint(f[None])
                f.setflags(write=False)
            checked.append(f)
        self._set(fibers=tuple(checked), truncated=truncated, label=label)

    @classmethod
    def bounded(cls, matrix, label: str = "") -> "Observable":
        return cls((matrix,), truncated=False, label=label)

    @classmethod
    def infinite(cls, label: str = "") -> "Observable":
        return cls((INFINITE,), truncated=False, label=label)

    @classmethod
    def fibered(cls, matrices, truncated: bool = True, label: str = "") -> "Observable":
        """Finitely many sampled fibers of a fibered observable.

        Sampling a continuum of fibers is a truncation, so the flag
        defaults to True.
        """
        return cls(tuple(matrices), truncated=truncated, label=label)


class CayleyImage(NamedTuple):
    """Unitary images (lam + i)/(lam - i) of the fibers, one per fiber."""

    fibers: tuple
    truncated: bool


def cayley(obs: Observable) -> CayleyImage:
    """Unitary fiber images; the infinite fiber maps to the constant 1."""
    out = []
    for f in obs.fibers:
        if f is INFINITE:
            out.append(np.array([[1.0 + 0j]]))
        else:
            half = f / 2.0  # (f + f*) / 2 overflows near the float limit
            w, v = np.linalg.eigh(half + half.conj().T)
            out.append((v * ((w + 1j) / (w - 1j))) @ v.conj().T)
    return CayleyImage(tuple(out), obs.truncated)


def _fiber_points(stack: np.ndarray, resolution: float) -> tuple[np.ndarray, bool]:
    """Distinct lam kept from a self-adjoint stack, and whether any were cut near w = 1.

    The stack is (m, d, d), or (m, d) diagonals, whose lam are their sorted
    re/2 + re/2: eigvalsh's, but exact where LAPACK rescales (beyond 1e+-146).
    Each fiber's unitary eigenvalues are merged at max(resolution, 1e-12), but
    only a fiber with a close pair runs the merge: the rows are sorted, so w
    runs around the circle in row order and only neighbours and the wrap pair
    can be close.  A pair is flagged at twice the radius, so that rounding in
    numpy's |z| cannot hide one.  Exact repeats need no merge; they are dropped
    before the per-point work.  Points farther than resolution from 1 map back
    to lam bitwise as CPython's 1j*(w+1.0)/(w-1.0).
    """
    # Halving first is exact and cannot overflow.  The Hermitian parts are
    # formed a 1 MiB slice at a time, so they cost a fraction of the stack.
    if stack.ndim == 2:
        lam = np.sort(stack.real / 2.0 + stack.real / 2.0, axis=1)
    else:
        step = max(1, 2**16 // stack[0].size)
        lam = np.concatenate([
            np.linalg.eigvalsh(part / 2.0 + (part / 2.0).conj().swapaxes(-1, -2))
            for part in (stack[i : i + step] for i in range(0, len(stack), step))
        ])
    w = (lam + 1j) / (lam - 1j)
    radius = max(resolution, 1e-12)
    gaps = np.abs(np.diff(w, axis=1))
    plain = ((gaps == 0) | (gaps > 2 * radius)).all(axis=1)
    if w.shape[1] > 1:
        plain &= np.abs(w[:, 0] - w[:, -1]) > 2 * radius
    fresh = np.ones(w.shape, dtype=bool)
    fresh[:, 1:] = gaps != 0
    on_circle, start = [], 0
    for i in np.flatnonzero(~plain).tolist() + [len(w)]:
        on_circle.append(w[start:i][fresh[start:i]])
        if i < len(w):
            on_circle.append(SpectrumSet.canonical(w[i].tolist(), radius).values.astype(complex))
        start = i + 1
    z = np.concatenate(on_circle)
    far = np.hypot(z.real - 1.0, z.imag - 0.0) > resolution  # abs(w - 1.0)
    a, b = z.real[far], z.imag[far]
    # CPython's steps: t = 1j * (w + 1.0) (1.0 * x is x), then _Py_c_quot(t, w - 1.0),
    # whose two branches (by the larger of |dr|, |di|) are one formula, as + commutes
    sr, si, dr, di = a + 1.0, b + 0.0, a - 1.0, b - 0.0
    tr, ti = 0.0 * sr - si, 0.0 * si + sr
    big = np.abs(dr) >= np.abs(di)
    p, q, u, v = (np.where(big, x, y) for x, y in ((di, dr), (dr, di), (tr, ti), (ti, tr)))
    ratio = p / q
    return _distinct((u + v * ratio) / (q + p * ratio)), len(a) < len(z)


def spec_observable(
    obs: Observable, resolution: float = DEFAULT_RESOLUTION
) -> SpectrumSet:
    """Spectrum through the Cayley route.

    Unitary eigenvalues within the discard radius of w = 1 correspond
    to |lam| of order 2/resolution and are dropped with truncated=True;
    the infinite fiber contributes nothing and no truncation, its
    spectrum is exactly empty.
    """
    parts, truncated = [np.zeros(0)], obs.truncated
    for _shape, same in groupby((f for f in obs.fibers if f is not INFINITE), key=np.shape):
        kept, cut = _fiber_points(np.stack(list(same)), resolution)
        parts, truncated = parts + [kept], truncated or cut
    return SpectrumSet.canonical(_distinct(np.concatenate(parts)), resolution, truncated=truncated)


def spec_union_observable(
    members, resolution: float = DEFAULT_RESOLUTION
) -> SpectrumSet:
    """Canonicalized union of member-observable spectra."""
    members = tuple(members)
    if not members:
        raise ValueError("the member list must be nonempty")
    return union_spectra([spec_observable(o, resolution) for o in members], resolution)
