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

Representations are lightweight tagged values; rep_apply turns
(representation, element) into a concrete matrix.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import IncompatibleModel, TruncationTooSmall, UnsupportedModel
from .spectral import op_norm

_POINT_TOL = 1e-12
_CONSTRAINT_TOL = 1e-12


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# base spaces and block structure


@dataclass(frozen=True)
class BaseSpace:
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
        grid = tuple(float(i) / n for i in range(n + 1))
        return cls("interval", grid, 1.0 / n)

    @classmethod
    def circle(cls, step: float) -> "BaseSpace":
        if not 0.0 < step <= 1.0:
            raise ValueError("grid step must lie in (0, 1]")
        n = int(np.ceil(1.0 / step - 1e-12))
        grid = tuple(float(i) / n for i in range(n))
        return cls("circle", grid, 1.0 / n)

    def distance(self, s: float, t: float) -> float:
        if self.kind == "circle":
            d = abs(s - t) % 1.0
            return min(d, 1.0 - d)
        return abs(s - t)

    def contains(self, t: float) -> bool:
        if self.kind == "discrete":
            return any(abs(t - p) <= _POINT_TOL for p in self.sample_grid)
        if self.kind == "interval":
            return -_POINT_TOL <= t <= 1.0 + _POINT_TOL
        return True  # circle wraps


@dataclass(frozen=True)
class BlockConstraint:
    """At `point`, values must be block-diagonal along `blocks`."""

    point: float
    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BlockStructure:
    """Fiber dimension plus the block-diagonality constraints."""

    fiber_dim: int
    constraints: tuple[BlockConstraint, ...] = ()

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError("fiber dimension must be positive")
        for c in self.constraints:
            seen = sorted(i for blk in c.blocks for i in blk)
            if seen != list(range(self.fiber_dim)):
                raise ValueError(
                    f"blocks at {c.point} must partition the {self.fiber_dim} fiber indices"
                )

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


@dataclass(frozen=True)
class FunctionModel:
    """Matrix functions on a base space with block constraints."""

    space: BaseSpace
    structure: BlockStructure

    def __post_init__(self):
        for c in self.structure.constraints:
            if not any(abs(c.point - g) <= _POINT_TOL for g in self.space.sample_grid):
                raise ValueError(f"constrained point {c.point} is not a grid point")

    @property
    def fiber_dim(self) -> int:
        return self.structure.fiber_dim


@dataclass(frozen=True)
class ToeplitzModel:
    """Symbol-plus-correction algebra sampled through sections and characters."""

    thetas: tuple[float, ...]
    section_sizes: tuple[int, ...] = (8, 16, 32, 64, 128)

    def __post_init__(self):
        if not self.thetas:
            raise ValueError("need at least one character angle")
        if not self.section_sizes or any(n < 1 for n in self.section_sizes):
            raise ValueError("section sizes must be positive")
        if list(self.section_sizes) != sorted(self.section_sizes):
            raise ValueError("section sizes must be nondecreasing")

    @classmethod
    def standard(cls, theta_count: int = 16, sections: Sequence[int] = (8, 16, 32, 64, 128)) -> "ToeplitzModel":
        thetas = tuple(2.0 * np.pi * k / theta_count for k in range(theta_count))
        return cls(thetas, tuple(int(n) for n in sections))


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Piecewise-linear matrix function with a certified Lipschitz bound.

    Breakpoints contain the model's sample grid; constrained points must
    satisfy their block structure to 1e-12 exactly.  Instances are
    immutable: the stored matrices are read-only copies.
    """

    model: FunctionModel
    breakpoints: tuple[float, ...]
    matrices: tuple[np.ndarray, ...]
    lipschitz_bound: float
    label: str = ""

    def __post_init__(self):
        if len(self.breakpoints) != len(self.matrices) or not self.breakpoints:
            raise ValueError("breakpoints and matrices must align and be nonempty")
        if any(b >= a for b, a in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not 0.0 <= self.lipschitz_bound < np.inf:
            raise ValueError("lipschitz bound must be finite and nonnegative")
        d = self.model.fiber_dim
        mats = []
        for m in self.matrices:
            arr = np.array(m, dtype=complex)
            if arr.shape != (d, d):
                raise ValueError(f"each value must be a {d}x{d} matrix")
            if not np.all(np.isfinite(arr)):
                raise ValueError("matrix entries must be finite")
            arr.setflags(write=False)
            mats.append(arr)
        object.__setattr__(self, "matrices", tuple(mats))
        bp = np.asarray(self.breakpoints)
        grid = np.asarray(self.model.space.sample_grid)
        pos = np.searchsorted(bp, grid)
        lo = np.clip(pos - 1, 0, len(bp) - 1)
        hi = np.clip(pos, 0, len(bp) - 1)
        near = np.minimum(np.abs(grid - bp[lo]), np.abs(grid - bp[hi]))
        if np.any(near > _POINT_TOL):
            missing = grid[int(np.argmax(near > _POINT_TOL))]
            raise ValueError(f"breakpoints must contain the grid point {missing}")
        for c in self.model.structure.constraints:
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
    def from_function(
        cls,
        model: FunctionModel,
        fn: Callable[[float], np.ndarray],
        lipschitz_bound: float | None = None,
        label: str = "",
    ) -> "AlgebraElement":
        bps = model.space.sample_grid
        mats = tuple(np.asarray(fn(t), dtype=complex) for t in bps)
        if lipschitz_bound is None:
            if model.space.kind != "discrete":
                raise ValueError("continuous base spaces need a certified lipschitz bound")
            lipschitz_bound = 0.0
        return cls(model, bps, mats, float(lipschitz_bound), label)

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
        parameter range, and the matrix bound is the Frobenius norm of
        the entrywise bounds.  A bound that overflows is refused.
        """
        d = model.fiber_dim
        space = model.space
        hi = 1.0 if space.kind in ("interval", "circle") else max(space.sample_grid)
        slopes = np.zeros((d, d))
        for (i, j), coeffs in entry_coeffs.items():
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"entry index ({i}, {j}) outside a {d}x{d} fiber")
            slopes[i, j] = sum(
                abs(c) * k * hi ** (k - 1) for k, c in enumerate(coeffs) if k >= 1
            )
        with np.errstate(over="ignore"):
            lip = float(np.linalg.norm(slopes, "fro"))

        def fn(t: float) -> np.ndarray:
            m = np.zeros((d, d), dtype=complex)
            for (i, j), coeffs in entry_coeffs.items():
                m[i, j] = sum(c * t**k for k, c in enumerate(coeffs))
            return m

        bps = space.sample_grid
        mats = tuple(fn(t) for t in bps)
        return cls(model, bps, mats, lip, label)

    @classmethod
    def identity(cls, model: FunctionModel, scale: complex = 1.0, label: str = "1") -> "AlgebraElement":
        d = model.fiber_dim
        bps = model.space.sample_grid
        mats = tuple(scale * np.eye(d, dtype=complex) for _ in bps)
        return cls(model, bps, mats, 0.0, label)

    # -- evaluation --------------------------------------------------------

    def value_at(self, t: float) -> np.ndarray:
        space = self.model.space
        bps = self.breakpoints
        if space.kind == "discrete":
            for b, m in zip(bps, self.matrices):
                if abs(t - b) <= 1e-9:
                    return m
            raise IncompatibleModel(f"{t!r} is not a point of the discrete base space")
        if space.kind == "interval":
            if not (-_POINT_TOL <= t <= 1.0 + _POINT_TOL):
                raise IncompatibleModel(f"evaluation point {t!r} outside [0, 1]")
            t = min(max(t, bps[0]), bps[-1])
        else:  # circle
            t = t % 1.0
            if t > bps[-1]:
                # wrap segment between the last breakpoint and 0 == 1
                w = (t - bps[-1]) / (1.0 - bps[-1])
                return (1.0 - w) * self.matrices[-1] + w * self.matrices[0]
        j = bisect.bisect_left(bps, t)
        if j < len(bps) and abs(bps[j] - t) <= _POINT_TOL:
            return self.matrices[j]
        if j > 0 and abs(bps[j - 1] - t) <= _POINT_TOL:
            return self.matrices[j - 1]
        lo, hi = bps[j - 1], bps[j]
        w = (t - lo) / (hi - lo)
        return (1.0 - w) * self.matrices[j - 1] + w * self.matrices[j]

    def sup_bound(self) -> float:
        """Certified upper bound for the sup norm over the base space."""
        worst = max(op_norm(m) for m in self.matrices)
        gap = max(
            (b - a for a, b in zip(self.breakpoints, self.breakpoints[1:])),
            default=0.0,
        )
        if self.model.space.kind == "circle":
            gap = max(gap, 1.0 - self.breakpoints[-1])
        return worst + self.lipschitz_bound * gap / 2.0

    # -- algebra -----------------------------------------------------------

    def _aligned(self, other: "AlgebraElement") -> tuple[tuple[float, ...], list, list]:
        if other.model is not self.model and other.model != self.model:
            raise IncompatibleModel("elements live on different models")
        bps = sorted(set(self.breakpoints) | set(other.breakpoints))
        return (
            tuple(bps),
            [self.value_at(t) for t in bps],
            [other.value_at(t) for t in bps],
        )

    def adjoint(self) -> "AlgebraElement":
        mats = tuple(m.conj().T for m in self.matrices)
        return AlgebraElement(
            self.model, self.breakpoints, mats, self.lipschitz_bound, f"adj({self.label})"
        )

    def __add__(self, other):
        if np.isscalar(other):
            mats = tuple(
                m + complex(other) * np.eye(self.model.fiber_dim) for m in self.matrices
            )
            return AlgebraElement(
                self.model, self.breakpoints, mats, self.lipschitz_bound,
                f"({self.label}+{other})",
            )
        bps, left, right = self._aligned(other)
        mats = tuple(l + r for l, r in zip(left, right))
        return AlgebraElement(
            self.model, bps, mats, self.lipschitz_bound + other.lipschitz_bound,
            f"({self.label}+{other.label})",
        )

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if np.isscalar(other):
            return self.__add__(-complex(other))
        return self.__add__(other * (-1.0))

    def __rsub__(self, other):
        return (self * (-1.0)).__add__(other)

    def __mul__(self, other):
        if np.isscalar(other):
            c = complex(other)
            mats = tuple(c * m for m in self.matrices)
            return AlgebraElement(
                self.model, self.breakpoints, mats,
                abs(c) * self.lipschitz_bound, f"({other}*{self.label})",
            )
        bps, left, right = self._aligned(other)
        mats = tuple(l @ r for l, r in zip(left, right))
        lip = self.lipschitz_bound * other.sup_bound() + self.sup_bound() * other.lipschitz_bound
        return AlgebraElement(self.model, bps, mats, lip, f"({self.label}*{other.label})")

    def __rmul__(self, other):
        if np.isscalar(other):
            return self.__mul__(other)
        return NotImplemented


@dataclass(frozen=True, eq=False)
class ToeplitzElement:
    """Polynomial symbol plus finite-rank corner correction.

    coeffs holds the symbol coefficients c_{-K} .. c_{K} (offset = K);
    correction is a finite matrix in the upper-left corner.  The adjoint
    conjugate-reflects the symbol and conjugate-transposes the
    correction; products are exact (symbol convolution plus a computable
    finite corner term).
    """

    model: ToeplitzModel
    coeffs: tuple[complex, ...]
    offset: int
    correction: np.ndarray
    section_sizes: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.coeffs) != 2 * self.offset + 1:
            raise ValueError("coefficient table must cover -K..K")
        corr = np.array(self.correction, dtype=complex)
        if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
            raise ValueError("correction must be square")
        corr.setflags(write=False)
        object.__setattr__(self, "correction", corr)
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not self.section_sizes:
            raise ValueError("need at least one section size")
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
        return cls(model, tuple(coeffs), k, corr, model.section_sizes, label)

    @classmethod
    def shift(cls, model: ToeplitzModel, label: str = "S") -> "ToeplitzElement":
        return cls.build(model, {1: 1.0}, label=label)

    @classmethod
    def identity(cls, model: ToeplitzModel, scale: complex = 1.0, label: str = "1") -> "ToeplitzElement":
        return cls.build(model, {0: scale}, label=label)

    def coeff(self, k: int) -> complex:
        if abs(k) > self.offset:
            return 0j
        return self.coeffs[k + self.offset]

    def symbol_at(self, theta: float) -> complex:
        return sum(
            c * np.exp(1j * (k - self.offset) * theta) for k, c in enumerate(self.coeffs)
        )

    def symbol_slope_bound(self) -> float:
        """Certified bound for |d/dtheta symbol|."""
        return float(
            sum(abs(k - self.offset) * abs(c) for k, c in enumerate(self.coeffs))
        )

    def section(self, n: int) -> np.ndarray:
        n0 = self.correction.shape[0]
        if n < max(n0, 1):
            raise TruncationTooSmall(
                f"section size {n} cannot hold the {n0}x{n0} correction"
            )
        m = np.zeros((n, n), dtype=complex)
        for k in range(-self.offset, self.offset + 1):
            c = self.coeff(k)
            if c != 0 and abs(k) < n:
                m += c * np.eye(n, k=-k)
        if n0:
            m[:n0, :n0] += self.correction
        return m

    def adjoint(self) -> "ToeplitzElement":
        coeffs = tuple(np.conj(c) for c in reversed(self.coeffs))
        return ToeplitzElement(
            self.model, coeffs, self.offset, self.correction.conj().T,
            self.section_sizes, f"adj({self.label})",
        )

    def _sections_union(self, other: "ToeplitzElement") -> tuple[int, ...]:
        return tuple(sorted(set(self.section_sizes) | set(other.section_sizes)))

    def __add__(self, other):
        if np.isscalar(other):
            other = ToeplitzElement.build(self.model, {0: complex(other)}, label=str(other))
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
            self.model, tuple(coeffs), k, corr, self._sections_union(other),
            f"({self.label}+{other.label})",
        )

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if np.isscalar(other):
            return self.__add__(-complex(other))
        return self.__add__(other * (-1.0))

    def __rsub__(self, other):
        return (self * (-1.0)).__add__(other)

    def __mul__(self, other):
        if np.isscalar(other):
            c = complex(other)
            return ToeplitzElement(
                self.model, tuple(c * x for x in self.coeffs), self.offset,
                c * self.correction, self.section_sizes, f"({other}*{self.label})",
            )
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
        if n0g:
            g_embed = np.zeros((m, m), dtype=complex)
            g_embed[:n0g, :n0g] = other.correction
            corr += tf.section(m) @ g_embed
        if n0f:
            f_embed = np.zeros((m, m), dtype=complex)
            f_embed[:n0f, :n0f] = self.correction
            corr += f_embed @ tg.section(m)
            if n0g:
                g_embed = np.zeros((m, m), dtype=complex)
                g_embed[:n0g, :n0g] = other.correction
                corr += f_embed @ g_embed
        nz = np.nonzero(np.abs(corr) > 0.0)
        keep = int(max(nz[0].max(), nz[1].max()) + 1) if nz[0].size else 0
        return ToeplitzElement(
            self.model, tuple(coeffs), k, corr[:keep, :keep],
            self._sections_union(other), f"({self.label}*{other.label})",
        )

    def __rmul__(self, other):
        if np.isscalar(other):
            return self.__mul__(other)
        return NotImplemented


Element = AlgebraElement | ToeplitzElement


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True)
class Representation:
    """Tagged evaluation rule; rep_apply realizes it on an element.

    kinds: "eval" (full matrix at a point), "block" (compression to one
    constrained block), "toeplitz-identity" (finite-section ladder),
    "toeplitz-character" (scalar symbol value).  The irreducible ones are
    the primitive points of enum_prim; each is closed except the section
    ladder pi, whose closure is the whole dual.
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


def rep_apply(rep: Representation, a: Element, section_size: int | None = None) -> np.ndarray:
    """Matrix image of the element under the representation.

    For the finite-section ladder the size defaults to the element's
    largest section; TruncationTooSmall if it cannot hold the correction.
    """
    if rep.kind in ("eval", "block"):
        if not isinstance(a, AlgebraElement):
            raise IncompatibleModel(f"{rep.label} applies to function-model elements")
        if rep.kind == "eval":
            if not a.model.space.contains(rep.point):
                raise IncompatibleModel(f"point {rep.point!r} outside the base space")
            return a.value_at(rep.point)
        c = a.model.structure.constraint_at(rep.point)
        if c is None:
            raise IncompatibleModel(f"no block constraint at {rep.point!r}")
        if not 0 <= rep.block < len(c.blocks):
            raise IncompatibleModel(f"block index {rep.block} out of range at {rep.point!r}")
        idx = list(c.blocks[rep.block])
        return a.value_at(rep.point)[np.ix_(idx, idx)]
    if rep.kind == "toeplitz-character":
        if not isinstance(a, ToeplitzElement):
            raise IncompatibleModel("characters apply to symbol-model elements")
        return np.array([[a.symbol_at(rep.theta)]], dtype=complex)
    if rep.kind == "toeplitz-identity":
        if not isinstance(a, ToeplitzElement):
            raise IncompatibleModel("the section ladder applies to symbol-model elements")
        n = max(a.section_sizes) if section_size is None else int(section_size)
        return a.section(n)
    raise UnsupportedModel(f"unknown representation kind {rep.kind!r}")


# ---------------------------------------------------------------------------
# primitive points


def enum_prim(model) -> tuple[Representation, ...]:
    """Irreducible representations of a gallery model at its sampling resolution.

    Each is a primitive point (the kernel of the representation).  Every
    point is closed except the section ladder pi, whose closure is the
    whole dual: that is what makes a single-member family complete.
    """
    if isinstance(model, FunctionModel):
        out: list[Representation] = []
        for t in model.space.sample_grid:
            c = model.structure.constraint_at(t)
            if c is None:
                out.append(Representation.eval_point(t))
            else:
                out += [Representation.block_eval(t, i) for i in range(len(c.blocks))]
        return tuple(out)
    if isinstance(model, ToeplitzModel):
        chars = tuple(Representation.toeplitz_character(th) for th in model.thetas)
        return (Representation.toeplitz_identity(), *chars)
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
    """Sup norm over the sample grid with its certified error bar."""
    if isinstance(a, ToeplitzElement):
        return toeplitz_norm(a)
    grid = a.model.space.sample_grid
    if a.breakpoints == grid:
        stack = np.stack(a.matrices)
    else:
        stack = np.stack([a.value_at(t) for t in grid])
    vals = np.linalg.svd(stack, compute_uv=False)[:, 0]
    bar = a.lipschitz_bound * a.model.space.grid_step / 2.0
    return NormEstimate(float(np.max(vals)), float(bar))


def _section_sweep(x: ToeplitzElement) -> tuple[NormEstimate, float]:
    """Ladder norm estimate plus the top section's smallest singular value.

    One SVD per section size serves both numbers, so callers that need the
    top section's invertibility margin pay nothing beyond the norm sweep.
    """
    sizes = sorted(set(x.section_sizes))
    svals = [np.linalg.svd(x.section(n), compute_uv=False) for n in sizes]
    norms = [float(s[0]) for s in svals]
    value = max(norms)
    increment = abs(norms[-1] - norms[-2]) if len(norms) > 1 else 0.0
    return NormEstimate(float(value), float(increment)), float(svals[-1][-1])


def toeplitz_norm(x: ToeplitzElement) -> NormEstimate:
    """Largest finite-section norm plus the last increment.

    Section norms are nondecreasing and approach the operator norm from
    below, so the value is a lower bound and the increment measures how
    settled the ladder is.
    """
    return _section_sweep(x)[0]

