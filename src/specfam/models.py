"""Concrete operator-algebra models and their representations.

Two model families are supported:

* FunctionModel -- continuous matrix-valued functions on a discrete set,
  the unit interval or the circle, with optional block-diagonality
  constraints at marked points.  Elements are piecewise-linear matrix
  data over breakpoints with a certified Lipschitz bound, so sup-norm
  statements carry explicit error bars.

* ToeplitzModel -- polynomial symbols plus a finite-rank corner
  correction, evaluated through a ladder of finite sections and through
  the circle characters of the symbol.

A family holds its members as columns (_Layout), and each model its
primitive points, so the gallery's families are slices of a model's arrays;
_laid_out checks Representations and turns them into the same columns, and
_reps builds them back where one is printed.  _images turns a layout into
its images of an element, one stack per image shape.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import IncompatibleModel, TruncationTooSmall, UnsupportedModel, _Frozen
from .spectral import self_adjoint

_POINT_TOL = 1e-12
_CONSTRAINT_TOL = 1e-12


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _first(points, bad: np.ndarray):
    """The first of the points flagged bad, as the caller gave it."""
    return np.asarray(points, dtype=object).reshape(-1)[int(np.argmax(bad))]


# ---------------------------------------------------------------------------
# base spaces and block structure


class BaseSpace(NamedTuple):
    """Parameter space carrying the sample grid used for sup-norms.

    kind is one of "discrete", "interval", "circle".  The grid is sorted
    and deduplicated; grid_step is the largest gap between neighbours
    (wrap-around counted on the circle, zero on discrete spaces whose
    points are isolated).
    """

    kind: str
    sample_grid: tuple[float, ...]
    grid_step: float

    @classmethod
    def discrete(cls, points: int) -> "BaseSpace":
        if points < 1:
            raise ValueError("a discrete space needs at least one point")
        return cls("discrete", tuple(float(i) for i in range(points)), 0.0)

    @classmethod
    def interval(cls, step: float) -> "BaseSpace":
        if not 0.0 < step <= 1.0:
            raise ValueError("grid step must lie in (0, 1]")
        n = int(np.ceil(1.0 / step - 1e-12))
        return cls("interval", tuple((np.arange(n + 1) / n).tolist()), 1.0 / n)

    @classmethod
    def circle(cls, step: float) -> "BaseSpace":
        if not 0.0 < step <= 1.0:
            raise ValueError("grid step must lie in (0, 1]")
        n = int(np.ceil(1.0 / step - 1e-12))
        return cls("circle", tuple((np.arange(n) / n).tolist()), 1.0 / n)

    def distance(self, s: float, t: float) -> float:
        if self.kind == "circle":
            d = abs(s - t) % 1.0
            return min(d, 1.0 - d)
        return abs(s - t)

    def contains(self, t: float) -> bool:
        if self.kind == "discrete":
            # the sorted grid's neighbours of t are the points nearest it
            grid, i = self.sample_grid, bisect_left(self.sample_grid, t)
            return any(abs(t - grid[j]) <= _POINT_TOL for j in (i - 1, i) if 0 <= j < len(grid))
        if self.kind == "interval":
            return -_POINT_TOL <= t <= 1.0 + _POINT_TOL
        return math.isfinite(t)  # the circle wraps every finite point


class BlockConstraint(NamedTuple):
    """At `point`, values must be block-diagonal along `blocks`."""

    point: float
    blocks: tuple[tuple[int, ...], ...]


class BlockStructure(_Frozen):
    """Fiber dimension plus the block-diagonality constraints."""

    _fields = ("fiber_dim", "constraints")

    def __init__(self, fiber_dim: int, constraints: tuple[BlockConstraint, ...] = ()):
        if fiber_dim < 1:
            raise ValueError("fiber dimension must be positive")
        for c in constraints:
            seen = sorted(i for blk in c.blocks for i in blk)
            if seen != list(range(fiber_dim)):
                raise ValueError(f"blocks at {c.point} must partition the {fiber_dim} fiber indices")
        self._set(fiber_dim=fiber_dim, constraints=constraints)

    @classmethod
    def unconstrained(cls, d: int) -> "BlockStructure":
        return cls(d, ())

    @classmethod
    def diagonal_at(cls, d: int, point: float) -> "BlockStructure":
        blocks = tuple((i,) for i in range(d))
        return cls(d, (BlockConstraint(float(point), blocks),))

    def constraint_at(self, point: float) -> BlockConstraint | None:
        for c in self.constraints:
            if abs(c.point - point) <= _POINT_TOL:
                return c
        return None


class FunctionModel(_Frozen):
    """Matrix functions on a base space with block constraints."""

    _fields = ("space", "structure")

    def __init__(self, space: BaseSpace, structure: BlockStructure):
        self._set(space=space, structure=structure)
        self._set(_at=_match(np.array([c.point for c in structure.constraints], float), self._grid).tolist())
        for c, k in zip(structure.constraints, self._at):  # _at: each constraint's grid index
            if k < 0:
                raise ValueError(f"constrained point {c.point} is not a grid point")

    @property
    def fiber_dim(self) -> int:
        return self.structure.fiber_dim

    @cached_property
    def _grid(self) -> np.ndarray:
        return np.array(self.space.sample_grid)

    @cached_property
    def _prim_cols(self) -> tuple[np.ndarray, ...]:
        """enum_prim's points as _Layout columns, built once per model: a whole
        evaluation per grid point, or a compression per block of the
        constraint there (the first within 1e-12, as constraint_at)."""
        grid, blocks = self._grid, np.zeros(len(self._grid), int)
        for c, k in reversed(list(zip(self.structure.constraints, self._at))):
            blocks[k] = len(c.blocks)
        index = np.repeat(np.arange(len(grid)), np.maximum(blocks, 1))
        block = np.where(blocks[index] > 0, np.arange(len(index)) - np.searchsorted(index, index), -1)
        return np.minimum(block + 1, 1), grid[index], block, index

    @cached_property
    def _prims(self) -> tuple[Representation, ...]:
        """enum_prim's list, built from _prim_cols."""
        return _reps(self._prim_cols)

    @cached_property
    def _tents(self) -> tuple[str, ...]:
        """Each primitive point's tent-probe label, tent(t)[i] for ev(t)[i], formatted once per model."""
        _, point, block, _ = self._prim_cols
        tents = [f"tent({t:.12g})" for t in point.tolist()]
        for r in np.flatnonzero(block >= 0).tolist():
            tents[r] = f"{tents[r]}[{block[r]}]"
        return tuple(tents)


class ToeplitzModel(_Frozen):
    """Symbol-plus-correction algebra sampled through sections and characters."""

    _fields = ("thetas", "section_sizes")

    def __init__(self, thetas: tuple[float, ...], section_sizes: tuple[int, ...] = (8, 16, 32, 64, 128)):
        if not thetas:
            raise ValueError("need at least one character angle")
        if not section_sizes or any(n < 1 for n in section_sizes):
            raise ValueError("section sizes must be positive")
        if list(section_sizes) != sorted(section_sizes):
            raise ValueError("section sizes must be nondecreasing")
        self._set(thetas=thetas, section_sizes=section_sizes)

    @cached_property
    def _prim_cols(self) -> tuple[np.ndarray, ...]:
        """enum_prim's points as _Layout columns: the section ladder, then a character per angle."""
        none = np.full(len(self.thetas) + 1, -1)
        return np.array((2, *[3] * len(self.thetas))), np.array((np.nan, *self.thetas)), none, none

    @cached_property
    def _prims(self) -> tuple[Representation, ...]:
        """enum_prim's list, built from _prim_cols."""
        return _reps(self._prim_cols)

    @classmethod
    def standard(cls, theta_count: int = 16, sections: Sequence[int] = (8, 16, 32, 64, 128)) -> "ToeplitzModel":
        thetas = tuple(2.0 * np.pi * k / theta_count for k in range(theta_count))
        return cls(thetas, tuple(int(n) for n in sections))


# ---------------------------------------------------------------------------
# elements


class _Reflected:
    """Reflected and subtracting operators, written through __add__ and __mul__."""

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if np.isscalar(other):
            return self.__add__(-complex(other))
        return self.__add__(other * (-1.0))

    def __rsub__(self, other):
        return (self * (-1.0)).__add__(other)

    def __rmul__(self, other):
        if np.isscalar(other):
            return self.__mul__(other)
        return NotImplemented

    def _same_model(self, other):
        if other.model is not self.model and other.model != self.model:
            raise IncompatibleModel("elements live on different models")


class AlgebraElement(_Reflected, _Frozen):
    """Piecewise-linear matrix function with a certified Lipschitz bound.

    breakpoints is a float64 array of shape (k,) and matrices the complex128
    stack of shape (k, d, d) of the values there.  Breakpoints contain the
    model's sample grid; constrained points must satisfy their block
    structure to 1e-12 exactly.  Instances are immutable: the stored
    matrices are read-only copies, taken once from any sequence of values.
    """

    _fields = ("model", "breakpoints", "matrices", "lipschitz_bound", "label")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, model: FunctionModel, breakpoints: np.ndarray, matrices: np.ndarray,
        lipschitz_bound: float, label: str = "",
    ):
        if len(breakpoints) != len(matrices) or len(breakpoints) == 0:
            raise ValueError("breakpoints and matrices must align and be nonempty")
        bps = np.array(breakpoints, dtype=float)
        if np.any(bps[1:] <= bps[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        if not 0.0 <= lipschitz_bound < np.inf:
            raise ValueError("lipschitz bound must be finite and nonnegative")
        d = model.fiber_dim
        try:
            mats = np.array(matrices, dtype=complex)
        except ValueError:  # values of differing shapes do not stack
            mats = None
        if mats is None or mats.shape != (len(bps), d, d):
            raise ValueError(f"each value must be a {d}x{d} matrix")
        if not np.isfinite(mats).all():
            raise ValueError("matrix entries must be finite")
        # sum |entries| bounds each value's norm, and with it every image norm
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(mats).sum(axis=(1, 2)).max()):
                raise ValueError("the entry sum of every value must be finite")
        bps.setflags(write=False)
        mats.setflags(write=False)
        self._set(
            model=model, breakpoints=bps, matrices=mats, lipschitz_bound=lipschitz_bound, label=label
        )
        grid = model._grid
        pos = np.searchsorted(bps, grid)
        lo = np.clip(pos - 1, 0, len(bps) - 1)
        hi = np.clip(pos, 0, len(bps) - 1)
        near = np.minimum(np.abs(grid - bps[lo]), np.abs(grid - bps[hi]))
        if np.any(near > _POINT_TOL):
            missing = grid[int(np.argmax(near > _POINT_TOL))]
            raise ValueError(f"breakpoints must contain the grid point {missing}")
        for c in model.structure.constraints:
            val = self.value_at(c.point)
            mask = np.zeros((d, d), dtype=bool)
            for blk in c.blocks:
                mask[np.ix_(blk, blk)] = True
            off = np.abs(val[~mask])
            if off.size and float(np.max(off)) > _CONSTRAINT_TOL:
                raise ValueError(
                    f"value at constrained point {c.point} violates its block structure "
                    f"(off-block magnitude {float(np.max(off)):.3e})"
                )

    # -- construction -----------------------------------------------------

    @classmethod
    def from_polynomials(
        cls,
        model: FunctionModel,
        entry_coeffs: dict[tuple[int, int], Sequence[complex]],
        label: str = "",
    ) -> "AlgebraElement":
        """Entries as polynomials in the base parameter, ascending coefficients.

        The Lipschitz bound is certified from the coefficients: each
        entry's derivative is bounded by sum |c_k| k hi^(k-1) over the
        parameter range, and the matrix bound is the Frobenius norm of the
        entrywise bounds (rescaled if only its squares overflow).  A bound
        that overflows is refused.  Entries sum c_k t**k in ascending k over
        one table of Python powers t**k per exponent, bit for bit the
        per-point Python sum.
        """
        d = model.fiber_dim
        space = model.space
        grid = space.sample_grid
        hi = 1.0 if space.kind in ("interval", "circle") else max(grid)
        slopes = np.zeros((d, d))
        for (i, j), coeffs in entry_coeffs.items():
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"entry index ({i}, {j}) outside a {d}x{d} fiber")
            slopes[i, j] = sum(
                abs(c) * k * hi ** (k - 1) for k, c in enumerate(coeffs) if k >= 1
            )
        degree = max(map(len, entry_coeffs.values()), default=0)
        powers = [np.array([t**k for t in grid]) for k in range(degree)]
        mats = np.zeros((len(grid), d, d), dtype=complex)
        with np.errstate(over="ignore"):  # __post_init__ refuses what overflows
            lip = float(np.linalg.norm(slopes, "fro"))
            if lip == np.inf and np.isfinite(slopes).all():  # only the squares overflowed
                lip = float(slopes.max() * np.linalg.norm(slopes / slopes.max(), "fro"))
            for (i, j), coeffs in entry_coeffs.items():
                for c, p in zip(map(complex, coeffs), powers):
                    mats.real[:, i, j] += c.real * p
                    mats.imag[:, i, j] += c.imag * p
        return cls(model, grid, mats, lip, label)

    @classmethod
    def identity(cls, model: FunctionModel, scale: complex = 1.0, label: str = "1") -> "AlgebraElement":
        d, bps = model.fiber_dim, model.space.sample_grid
        mats = np.broadcast_to(scale * np.eye(d, dtype=complex), (len(bps), d, d))
        return cls(model, bps, mats, 0.0, label)

    # -- evaluation --------------------------------------------------------

    def values_at(self, points) -> np.ndarray:
        """Values at many points as one (k, d, d) stack: _evaluate's values."""
        return self._evaluate(points)[0]

    def _evaluate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Values at many points, with one searchsorted, and the breakpoint
        whose matrix each point takes (-1 where it lerps).

        A point within 1e-12 of a breakpoint takes its matrix; any other
        lerps between its two neighbours.  On a discrete base a point takes
        the first matrix whose breakpoint lies within 1e-9, and raises if
        there is none; an interval point is checked against [0, 1] within
        1e-12 and then clamped; a circle point is taken mod 1, and past the
        last breakpoint it lerps towards the first, at 1 == 0, unsnapped.
        The first point that fails raises.
        """
        t = np.array(points, dtype=float).reshape(-1)
        bps, stack = self.breakpoints, self.matrices
        n, kind = len(bps), self.model.space.kind
        if kind == "discrete":
            # the breakpoints within 1e-9 of t are one run: step down to its first
            j = np.minimum(np.searchsorted(bps, t), n - 1)
            while (down := (j > 0) & (np.abs(t - bps[j - 1]) <= 1e-9)).any():
                j = j - down
            bad = np.abs(t - bps[j]) > 1e-9
            if bad.any():
                raise IncompatibleModel(
                    f"{_first(points, bad)!r} is not a point of the discrete base space"
                )
            return stack[j], j
        if kind == "interval":
            bad = ~((-_POINT_TOL <= t) & (t <= 1.0 + _POINT_TOL))
            if bad.any():
                raise IncompatibleModel(f"evaluation point {_first(points, bad)!r} outside [0, 1]")
            t = np.minimum(np.maximum(t, bps[0]), bps[-1])
        else:  # circle
            t = t % 1.0
        # j == n only past the last breakpoint of a circle: the wrap segment
        j = np.searchsorted(bps, t)
        k = np.minimum(j, n - 1)
        upper = np.abs(bps[k] - t) <= _POINT_TOL
        lower = np.abs(bps[j - 1] - t) <= _POINT_TOL
        mid = (j == n) | ~(upper | lower)
        at = np.where(mid, -1, np.where(upper, k, j - 1))
        out = stack[at]
        if mid.any():
            j, t = j[mid], t[mid]
            lo, hi = bps[j - 1], np.append(bps, 1.0)[j]
            w = ((t - lo) / (hi - lo))[:, None, None]
            out[mid] = (1.0 - w) * stack[j - 1] + w * stack[j % n]
        return out, at

    def value_at(self, t: float) -> np.ndarray:
        """The value at one point: values_at's one-point view."""
        return self.values_at((t,))[0]

    @cached_property
    def _svals(self) -> np.ndarray:
        """Each breakpoint matrix's singular values: one batched SVD, kept."""
        return np.linalg.svd(self.matrices, compute_uv=False)

    def _svals_at(self, values: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Singular values of _evaluate's values: a breakpoint's row of _svals,
        else one batched SVD (LAPACK solves each matrix alone, bit for bit)."""
        out, off = self._svals[at], at < 0
        if off.any():
            out[off] = np.linalg.svd(values[off], compute_uv=False)
        return out

    @cached_property
    def _direct_sweep(self) -> tuple[float, float]:
        """sigma_min over the midpoint-refined grid and the certified margin
        sigma_min - lipschitz * gap / 2, once per element (kept on it, like
        the Toeplitz ladder sweep).  Only the midpoints are solved here."""
        bps = self.breakpoints
        kind = self.model.space.kind
        if kind == "discrete":
            pts = bps
            gap = 0.0
        else:
            pts = np.empty(2 * len(bps) - 1)
            pts[0::2], pts[1::2] = bps, (bps[:-1] + bps[1:]) / 2.0
            gap = float(np.diff(pts).max(initial=0.0))
            if kind == "circle":
                pts = np.append(pts, (bps[-1] + 1.0) / 2.0)
                gap = max(gap, 1.0 - bps[-1])
        sigma = float(self._svals_at(*self._evaluate(pts))[:, -1].min())
        return sigma, float(sigma - self.lipschitz_bound * gap / 2.0)

    def sup_bound(self) -> float:
        """Certified upper bound for the sup norm over the base space, from _svals."""
        worst = float(self._svals[:, 0].max())
        gap = float(np.diff(self.breakpoints).max(initial=0.0))
        if self.model.space.kind == "circle":
            gap = max(gap, 1.0 - float(self.breakpoints[-1]))
        return worst + self.lipschitz_bound * gap / 2.0

    # -- algebra -----------------------------------------------------------

    def _aligned(self, other: "AlgebraElement") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self._same_model(other)
        bps = np.union1d(self.breakpoints, other.breakpoints)
        return bps, self.values_at(bps), other.values_at(bps)

    def adjoint(self) -> "AlgebraElement":
        mats = self.matrices.conj().swapaxes(1, 2)
        return AlgebraElement(
            self.model, self.breakpoints, mats, self.lipschitz_bound, f"adj({self.label})"
        )

    def __add__(self, other):
        if np.isscalar(other):
            mats = self.matrices + complex(other) * np.eye(self.model.fiber_dim)
            return AlgebraElement(
                self.model, self.breakpoints, mats, self.lipschitz_bound,
                f"({self.label}+{other})",
            )
        bps, left, right = self._aligned(other)
        return AlgebraElement(
            self.model, bps, left + right, self.lipschitz_bound + other.lipschitz_bound,
            f"({self.label}+{other.label})",
        )

    def __mul__(self, other):
        if np.isscalar(other):
            c = complex(other)
            return AlgebraElement(
                self.model, self.breakpoints, c * self.matrices,
                abs(c) * self.lipschitz_bound, f"({other}*{self.label})",
            )
        bps, left, right = self._aligned(other)
        lip = self.lipschitz_bound * other.sup_bound() + self.sup_bound() * other.lipschitz_bound
        return AlgebraElement(self.model, bps, left @ right, lip, f"({self.label}*{other.label})")


class ToeplitzElement(_Reflected, _Frozen):
    """Polynomial symbol plus finite-rank corner correction.

    coeffs holds the symbol coefficients c_{-K} .. c_{K} (offset = K);
    correction is a finite matrix in the upper-left corner.  The adjoint
    conjugate-reflects the symbol and conjugate-transposes the
    correction; products are exact (symbol convolution plus a computable
    finite corner term).
    """

    _fields = ("model", "coeffs", "offset", "correction", "label")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, model: ToeplitzModel, coeffs: tuple[complex, ...], offset: int,
        correction: np.ndarray, label: str = "",
    ):
        if len(coeffs) != 2 * offset + 1:
            raise ValueError("coefficient table must cover -K..K")
        corr = np.array(correction, dtype=complex)
        if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
            raise ValueError("correction must be square")
        corr.setflags(write=False)
        coeffs = tuple(complex(c) for c in coeffs)
        self._set(model=model, coeffs=coeffs, offset=offset, correction=corr, label=label)
        # sum |c_k| + sum |corr_ij| bounds the norm; Python float sums overflow to inf quietly
        norm_bound = sum(np.abs(self.coeffs).tolist()) + sum(np.abs(corr).ravel().tolist())
        if not (np.isfinite(norm_bound) and np.isfinite(self.symbol_slope_bound())):
            raise ValueError("the symbol and correction bounds must be finite")

    @classmethod
    def build(
        cls,
        model: ToeplitzModel,
        symbol: dict[int, complex] | None = None,
        correction: np.ndarray | None = None,
        label: str = "",
    ) -> "ToeplitzElement":
        symbol = symbol or {}
        k = max((abs(int(i)) for i in symbol), default=0)
        coeffs = [0j] * (2 * k + 1)
        for i, c in symbol.items():
            coeffs[int(i) + k] = complex(c)
        corr = np.zeros((0, 0)) if correction is None else np.asarray(correction, dtype=complex)
        return cls(model, tuple(coeffs), k, corr, label)

    @classmethod
    def shift(cls, model: ToeplitzModel, label: str = "S") -> "ToeplitzElement":
        return cls.build(model, {1: 1.0}, label=label)

    @classmethod
    def identity(cls, model: ToeplitzModel, scale: complex = 1.0, label: str = "1") -> "ToeplitzElement":
        return cls.build(model, {0: scale}, label=label)

    @property
    def section_sizes(self) -> tuple[int, ...]:  # algebra keeps every element on its model
        return self.model.section_sizes

    def coeff(self, k: int) -> complex:
        if abs(k) > self.offset:
            return 0j
        return self.coeffs[k + self.offset]

    def symbol_at(self, theta: float) -> complex:
        return self._symbol(np.array([theta], float))[0]

    def _symbol(self, thetas: np.ndarray) -> np.ndarray:
        """The symbol at each angle: sum c_k e^(i k theta), each term's complex
        product written out in real arithmetic, bit for bit the scalar numpy
        product (which numpy's complex array product does not round alike)."""
        out = np.zeros(len(thetas), complex)
        for k, c in enumerate(self.coeffs, -self.offset):
            z = np.exp(1j * k * thetas)
            out.real += c.real * z.real - c.imag * z.imag
            out.imag += c.real * z.imag + c.imag * z.real
        return out

    def symbol_slope_bound(self) -> float:
        """Certified bound for |d/dtheta symbol|."""
        return float(
            sum(abs(k - self.offset) * abs(c) for k, c in enumerate(self.coeffs))
        )

    @cached_property
    def _section_sweep(self) -> tuple[NormEstimate, float, np.ndarray | None]:
        """Ladder norm estimate, the top section's sigma_min and _section_values' eigenvalues.

        One solve per section size serves all three (_section_values).  The
        sweep runs once per element and is kept on it, so the norm, the ladder
        member's image values and spectrum and the invertibility routes all read it.
        """
        svals = [self._section_values(n) for n in sorted(set(self.section_sizes))]
        norms = [float(s.max()) for s, _ in svals]
        increment = abs(norms[-1] - norms[-2]) if len(norms) > 1 else 0.0
        return NormEstimate(max(norms), float(increment)), float(svals[-1][0].min()), svals[-1][1]

    def _section_values(self, n: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The n x n section's singular values, in no particular order, and
        its eigenvalues if one eigvalsh of the whole section found them.

        With no correction and real, even coefficients (c_k = c_-k), an even
        section is symmetric and centrosymmetric, so orthogonally similar to
        diag(A + H, A - H), A = T_{n/2} and H_ij = c_{n-1-i-j} (Cantoni and
        Butler 1976): one eigvalsh of that (2, n/2, n/2) stack.  Any other
        section: eigvalsh if it equals its adjoint exactly, an SVD otherwise.
        """
        c, k = self.coeffs, self.offset
        if n % 2 or self.correction.size or any(z.imag for z in c) or c != c[::-1]:
            m = self.section(n)
            w = np.linalg.eigvalsh(m) if self_adjoint(m) else None
            return (np.linalg.svd(m, compute_uv=False), w) if w is None else (np.abs(w), w)
        h, pair = n // 2, np.array([self.section(n // 2)] * 2)  # A twice, then +H and -H
        for j in range(1, min(k, n - 1) + 1):  # c_j fills the anti-diagonal a + b = n - 1 - j of H
            a = np.arange(max(0, h - j), min(h, n - j))
            pair[:, a, n - 1 - j - a] += [[c[k + j].real], [-c[k + j].real]]
        return np.abs(np.linalg.eigvalsh(pair)).ravel(), None

    def section(self, n: int) -> np.ndarray:
        """The n x n compression: float64 when every coefficient and correction
        entry has a zero imaginary part (-0.0 included), since T(a) + K then
        commutes with conjugation and its eigvalsh or SVDs run in real LAPACK;
        complex128 otherwise."""
        n0 = self.correction.shape[0]
        if n < max(n0, 1):
            raise TruncationTooSmall(
                f"section size {n} cannot hold the {n0}x{n0} correction"
            )
        real = not (any(c.imag for c in self.coeffs) or self.correction.imag.any())
        m = np.zeros((n, n), dtype=float if real else complex)
        for k, c in enumerate(self.coeffs, -self.offset):
            if c != 0 and abs(k) < n:
                # diagonal -k, in place; a real part adds as the complex sum's real part does
                m.reshape(-1)[max(k * n, -k) :: n + 1][: n - abs(k)] += c.real if real else c
        if n0:
            m[:n0, :n0] += self.correction.real if real else self.correction
        return m

    def adjoint(self) -> "ToeplitzElement":
        coeffs = tuple(np.conj(c) for c in reversed(self.coeffs))
        return ToeplitzElement(
            self.model, coeffs, self.offset, self.correction.conj().T, f"adj({self.label})"
        )

    def __add__(self, other):
        if np.isscalar(other):
            other = ToeplitzElement.build(self.model, {0: complex(other)}, label=str(other))
        self._same_model(other)
        k = max(self.offset, other.offset)
        coeffs = [self.coeff(i) + other.coeff(i) for i in range(-k, k + 1)]
        n0 = max(self.correction.shape[0], other.correction.shape[0])
        corr = np.zeros((n0, n0), dtype=complex)
        a0, b0 = self.correction.shape[0], other.correction.shape[0]
        if a0:
            corr[:a0, :a0] += self.correction
        if b0:
            corr[:b0, :b0] += other.correction
        return ToeplitzElement(
            self.model, tuple(coeffs), k, corr, f"({self.label}+{other.label})"
        )

    def __mul__(self, other):
        if np.isscalar(other):
            c = complex(other)
            return ToeplitzElement(
                self.model, tuple(c * x for x in self.coeffs), self.offset,
                c * self.correction, f"({other}*{self.label})",
            )
        self._same_model(other)
        # T(f)T(g) = T(fg) - H(f)H(g~); corrections multiply through exactly
        kf, kg = self.offset, other.offset
        k = kf + kg
        coeffs = [0j] * (2 * k + 1)
        for i in range(-kf, kf + 1):
            ci = self.coeff(i)
            if ci == 0:
                continue
            for j in range(-kg, kg + 1):
                cj = other.coeff(j)
                if cj != 0:
                    coeffs[i + j + k] += ci * cj
        n0f = self.correction.shape[0]
        n0g = other.correction.shape[0]
        m = max(kf + kg, n0g + kf, n0f + kg, n0f, n0g, 1)
        hf = np.zeros((m, m), dtype=complex)
        hg = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                hf[i, j] = self.coeff(i + j + 1)
                hg[i, j] = other.coeff(-(i + j + 1))
        corr = -hf @ hg
        tf = ToeplitzElement.build(self.model, {i: self.coeff(i) for i in range(-kf, kf + 1)})
        tg = ToeplitzElement.build(self.model, {j: other.coeff(j) for j in range(-kg, kg + 1)})
        g_embed = np.zeros((m, m), dtype=complex)
        g_embed[:n0g, :n0g] = other.correction
        if n0g:
            corr += tf.section(m) @ g_embed
        if n0f:
            f_embed = np.zeros((m, m), dtype=complex)
            f_embed[:n0f, :n0f] = self.correction
            corr += f_embed @ tg.section(m)
            if n0g:
                corr += f_embed @ g_embed
        nz = np.nonzero(np.abs(corr) > 0.0)
        keep = int(max(nz[0].max(), nz[1].max()) + 1) if nz[0].size else 0
        return ToeplitzElement(
            self.model, tuple(coeffs), k, corr[:keep, :keep], f"({self.label}*{other.label})"
        )


Element = AlgebraElement | ToeplitzElement


# ---------------------------------------------------------------------------
# representations


class Representation(NamedTuple):
    """Tagged evaluation rule; rep_apply realizes it on an element.

    kinds: "eval" (full matrix at a point), "block" (compression to one
    constrained block), "toeplitz-identity" (finite-section ladder),
    "toeplitz-character" (scalar symbol value).  The irreducible ones are
    the primitive points of enum_prim; each is closed except the section
    ladder pi, whose closure is the whole dual.  A named tuple: it compares
    and hashes by its fields, and costs a tuple to build.
    """

    kind: str
    point: float | None = None
    block: int | None = None
    theta: float | None = None
    label: str = ""

    @classmethod
    def eval_point(cls, t: float) -> "Representation":
        return cls("eval", point=float(t), label=f"ev({_fmt(float(t))})")

    @classmethod
    def block_eval(cls, t: float, i: int) -> "Representation":
        return cls("block", point=float(t), block=int(i), label=f"ev({_fmt(float(t))})[{i}]")

    @classmethod
    def toeplitz_identity(cls) -> "Representation":
        return cls("toeplitz-identity", label="pi")

    @classmethod
    def toeplitz_character(cls, theta: float) -> "Representation":
        return cls("toeplitz-character", theta=float(theta), label=f"chi({_fmt(float(theta))})")


class _Layout(NamedTuple):
    """Members as columns on one model: kind (in _KINDS), point (a character's
    angle, nan for pi), block and grid index (-1 for none); then the member
    positions per block group (None: the whole fiber), characters and ladders."""

    kind: np.ndarray
    point: np.ndarray
    block: np.ndarray
    index: np.ndarray
    groups: dict[tuple[int, ...] | None, np.ndarray]
    characters: np.ndarray
    ladders: tuple[int, ...]


_KINDS = ("eval", "block", "toeplitz-identity", "toeplitz-character")


def _layout(model, kind, point, block, index) -> _Layout:
    """Members given as columns that act on the model, laid out: a compression reads its constraint's block."""
    groups = {None: np.flatnonzero(kind == 0)}
    pos = np.flatnonzero(kind == 1)
    for i, t, b in zip(pos.tolist(), point[pos].tolist(), block[pos].tolist()):
        groups.setdefault(model.structure.constraint_at(t).blocks[b], []).append(i)
    groups = {blk: np.array(at, int) for blk, at in groups.items() if len(at)}
    ladders = tuple(np.flatnonzero(kind == 2).tolist())
    return _Layout(kind, point, block, index, groups, np.flatnonzero(kind == 3), ladders)


def _laid_out(members: Sequence[Representation], model) -> _Layout:
    """Members checked against the model (_columns), then laid out on it."""
    return _layout(model, *_columns(members, model))


def _columns(members: Sequence[Representation], model) -> tuple[np.ndarray, ...]:
    """Members checked against the model, as _Layout's kind, point, block and
    index columns; the first that does not act raises, its error naming it as
    `member`.  The symbol model's members are characters and the section
    ladder; a function model's, evaluations at base-space points and
    compressions to a block."""
    rows = []
    for rep in members:
        kind, error = rep.kind, None
        if kind in ("toeplitz-character", "toeplitz-identity"):
            if not isinstance(model, ToeplitzModel):
                what = "characters apply" if kind == "toeplitz-character" else "the section ladder applies"
                error = IncompatibleModel(f"{what} to symbol-model elements")
        elif kind not in ("eval", "block"):
            error = UnsupportedModel(f"unknown representation kind {kind!r}")
        elif not isinstance(model, FunctionModel):
            error = IncompatibleModel(f"{rep.label} applies to function-model elements")
        elif kind == "eval":
            if not model.space.contains(rep.point):
                error = IncompatibleModel(f"point {rep.point!r} outside the base space")
        elif (c := model.structure.constraint_at(rep.point)) is None:
            error = IncompatibleModel(f"no block constraint at {rep.point!r}")
        elif not 0 <= rep.block < len(c.blocks):
            error = IncompatibleModel(f"block index {rep.block} out of range at {rep.point!r}")
        if error is not None:
            error.member = rep
            raise error
        at = rep.theta if kind == "toeplitz-character" else rep.point
        rows.append((_KINDS.index(kind), at, rep.block if kind == "block" else -1))
    kind, point, block = np.array(rows, float).reshape(-1, 3).T
    index = np.full(len(kind), -1)  # a function model's members: their grid points
    if isinstance(model, FunctionModel):
        index = _match(point, model._grid, 1.0 if model.space.kind == "circle" else None)
    return kind.astype(int), point, block.astype(int), index


def _match(x: np.ndarray, grid: np.ndarray, period: float | None = None) -> np.ndarray:
    """For each x, the index of a point of the sorted grid within 1e-12 of it
    (of x mod period or one period below, with one), else -1: its two
    neighbours by searchsorted decide."""
    out = np.full(len(x), -1)
    for z in (x,) if period is None else (x % period, x % period - period):
        i = np.searchsorted(grid, z)
        for j in (np.maximum(i - 1, 0), np.minimum(i, len(grid) - 1)):
            out = np.where(np.abs(z - grid[j]) <= _POINT_TOL, j, out)
    return out


def _reps(cols, rows=slice(None)) -> tuple[Representation, ...]:
    """Members or primitive points, these rows of their columns, as Representations."""
    make = (
        lambda t, b: Representation.eval_point(t), Representation.block_eval,
        lambda t, b: Representation.toeplitz_identity(), lambda t, b: Representation.toeplitz_character(t),
    )
    return tuple(make[k](t, b) for k, t, b in zip(*(c[rows].tolist() for c in cols[:3])))


def _images(
    members: Sequence[Representation] | None, a: Element, layout: _Layout | None = None, values=None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Images of the element under the members, as (member positions, stack)
    per image shape.

    Evaluation and block members read one values_at lookup over their
    points (or values, if known); a block image is its evaluation compressed
    to the block.  Characters read the symbol at their angles at once, a
    float stack if no value has an imaginary part; the section ladder is
    applied per member.  A family passes its layout and no members; without
    a layout the members are laid out here, and the first that does not act
    raises."""
    if layout is None:
        layout = _laid_out(members, a.model)
    if values is None and layout.groups:
        values = a.values_at(layout.point)
    shapes: dict[int, list] = {}
    for block, pos in layout.groups.items():
        image = values[pos] if block is None else values[np.ix_(pos, block, block)]
        shapes.setdefault(image.shape[-1], []).append((pos, image))
    if layout.characters.size:
        chars = a._symbol(layout.point[layout.characters])[:, None, None]
        real = not chars.imag.any()
        shapes.setdefault(1, []).append((layout.characters, chars.real if real else chars))
    for i in layout.ladders:
        image = a.section(max(a.section_sizes))
        shapes.setdefault(len(image), []).append((np.array([i]), image[None]))
    return [
        same[0] if len(same) == 1
        else (np.concatenate([pos for pos, _ in same]), np.concatenate([m for _, m in same]))
        for same in shapes.values()
    ]


def rep_apply(rep: Representation, a: Element) -> np.ndarray:
    """Matrix image of the element under the representation: the
    one-member view of _images.

    For the finite-section ladder this is the element's largest section;
    TruncationTooSmall if it cannot hold the correction.
    """
    ((_, stack),) = _images((rep,), a)
    return stack[0]


# ---------------------------------------------------------------------------
# primitive points


def enum_prim(model) -> tuple[Representation, ...]:
    """Irreducible representations of a gallery model at its sampling resolution.

    Each is a primitive point (the kernel of the representation).  Every
    point is closed except the section ladder pi, whose closure is the
    whole dual: that is what makes a single-member family complete.  The
    list is built from the model's columns on first call and kept on it.
    """
    if isinstance(model, (FunctionModel, ToeplitzModel)):
        return model._prims
    raise UnsupportedModel(f"cannot enumerate primitive points of {type(model).__name__}")


# ---------------------------------------------------------------------------
# norms


class NormEstimate(NamedTuple):
    """Norm value together with its certified error bar.

    For section ladders the error field is the last increment of the
    nondecreasing section norms -- a convergence indicator rather than a
    certified bar, since section norms approach the true norm from below.
    """

    value: float
    error: float


def elem_norm(a: Element) -> NormEstimate:
    """Sup norm over the sample grid, from the element's kept solve, with its certified error bar."""
    if isinstance(a, ToeplitzElement):
        return toeplitz_norm(a)
    vals = a._svals_at(*a._evaluate(a.model._grid))[:, 0]
    bar = a.lipschitz_bound * a.model.space.grid_step / 2.0
    return NormEstimate(float(np.max(vals)), float(bar))


def toeplitz_norm(x: ToeplitzElement) -> NormEstimate:
    """Largest finite-section norm plus the last increment.

    Section norms are nondecreasing and approach the operator norm from
    below, so the value is a lower bound and the increment measures how
    settled the ladder is.  The ladder is swept once per element and the
    sweep is kept on the element.
    """
    return x._section_sweep[0]

