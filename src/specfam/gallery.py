"""Named gallery models and family generators.

Scenario files and tests refer to models and families by these names,
so the builders must stay deterministic: same name and parameters, same
object, member order included.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnsupportedModel
from .models import (
    BaseSpace,
    BlockStructure,
    FunctionModel,
    Representation,
    ToeplitzModel,
    _layout,
    _match,
    enum_prim,
)
from .families import RepFamily, _acting

MODEL_NAMES = (
    "interval-matrix",
    "interval-scalar",
    "circle-scalar",
    "discrete",
    "toeplitz",
)

FAMILY_GENERATORS = (
    "prim-all",
    "eval-grid",
    "coarse",
    "single",
    "blocks-only",
    "toeplitz-pi",
    "toeplitz-chars",
    "toeplitz-all",
)


# The most dense matrix entries a gallery model may hold: grid points x d^2
# on a function model, max(top section^2, characters) on the symbol model.
MAX_DENSE_ENTRIES = 2**20


def build_model(name: str, **params):
    """Gallery model by name.

    interval-matrix: 2x2 fibers on [0, 1], diagonal constraint at 1
                     (params: step, dim, constraint_point)
    interval-scalar: scalar fibers on [0, 1]          (params: step)
    circle-scalar:   scalar fibers on the circle      (params: step)
    discrete:        finite base                      (params: points, dim)
    toeplitz:        symbol plus corner corrections   (params: theta_count, sections)

    A model that would hold more than MAX_DENSE_ENTRIES dense entries is
    refused before anything is allocated.
    """
    if name == "interval-matrix":
        step = float(params.pop("step", 1.0 / 8))
        dim = int(params.pop("dim", 2))
        at = float(params.pop("constraint_point", 1.0))
        _reject_extras(name, params)
        _admit(name, _grid_points(step, 1) * max(dim, 0) ** 2)
        return FunctionModel(BaseSpace.interval(step), BlockStructure.diagonal_at(dim, at))
    if name == "interval-scalar":
        step = float(params.pop("step", 1.0 / 8))
        _reject_extras(name, params)
        _admit(name, _grid_points(step, 1))
        return FunctionModel(BaseSpace.interval(step), BlockStructure.unconstrained(1))
    if name == "circle-scalar":
        step = float(params.pop("step", 1.0 / 8))
        _reject_extras(name, params)
        _admit(name, _grid_points(step, 0))
        return FunctionModel(BaseSpace.circle(step), BlockStructure.unconstrained(1))
    if name == "discrete":
        points = int(params.pop("points", 4))
        dim = int(params.pop("dim", 2))
        _reject_extras(name, params)
        _admit(name, max(points, 0) * max(dim, 0) ** 2)
        return FunctionModel(BaseSpace.discrete(points), BlockStructure.unconstrained(dim))
    if name == "toeplitz":
        theta_count = int(params.pop("theta_count", 16))
        sections = tuple(int(n) for n in params.pop("sections", (8, 16, 32, 64, 128)))
        _reject_extras(name, params)
        _admit(name, max(max((*sections, 0)) ** 2, theta_count))
        return ToeplitzModel.standard(theta_count, sections)
    raise UnsupportedModel(f"unknown gallery model {name!r}")


def _grid_points(step: float, ends: int) -> float:
    """Grid points at this step: ceil(1/step) plus ends (0 on the circle); 0 off (0, 1]."""
    if not 0.0 < step <= 1.0:
        return 0.0  # the space itself refuses the step
    per = 1.0 / step - 1e-12
    return (math.ceil(per) if per < 2.0**53 else per) + ends


def _admit(name: str, entries: float):
    if entries > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"model {name!r} would hold {entries:.4g} dense matrix entries, "
            f"above the cap of {MAX_DENSE_ENTRIES} (2^20)"
        )


def _reject_extras(name: str, params: dict):
    if params:
        keys = ", ".join(sorted(params))
        raise ValueError(f"model {name!r} does not accept parameters: {keys}")


def build_family(model, generator: str, label: str | None = None, **options) -> RepFamily:
    """Family of representations by generator name.

    prim-all:       one member per primitive point
    eval-grid:      full evaluation at every grid point; options
                    exclude_points (list of grid points to drop) and
                    add_blocks (list of (point, block) pairs to add)
    coarse:         every stride-th grid evaluation  (options: stride)
    single:         one evaluation                   (options: at)
    blocks-only:    only the constrained block compressions
    toeplitz-pi:    the section ladder alone
    toeplitz-chars: every character
    toeplitz-all:   ladder plus characters

    label names the family; by default it is made from the generator
    and its options.
    """
    generated, evals = generator, None  # evals: grid indices of whole evaluations, laid out below
    if generator in _PRIM_ROWS:  # rows of the model's primitive-point columns
        if generator != "prim-all":
            _needs(model, ToeplitzModel, generator)
        elif not isinstance(model, (FunctionModel, ToeplitzModel)):
            enum_prim(model)  # raises: the model has no primitive points to list
        members = _layout(model, *(c[_PRIM_ROWS[generator]] for c in model._prim_cols))
    elif generator == "eval-grid":
        _needs(model, FunctionModel, generator)
        excluded = [float(t) for t in options.pop("exclude_points", ())]
        added = tuple(Representation.block_eval(t, i) for t, i in options.pop("add_blocks", ()))
        found, keep = _match(np.array(excluded, float), model._grid), np.ones(len(model._grid), bool)
        if (found < 0).any():  # each must lie within 1e-12 of a grid point
            raise ValueError(f"excluded point {excluded[int(np.argmax(found < 0))]!r} is not a grid point")
        keep[found] = False
        evals, members = np.flatnonzero(keep), added
        if excluded or added:
            generated = f"{generator}[-{len(excluded)}+{len(added)}]"
    elif generator == "coarse":
        _needs(model, FunctionModel, generator)
        stride = int(options.pop("stride", 2))
        if stride < 1:
            raise ValueError("stride must be at least 1")
        evals, members = np.arange(0, len(model._grid), stride), ()
        generated = f"coarse[{stride}]"
    elif generator == "single":
        _needs(model, FunctionModel, generator)
        at = float(options.pop("at", model.space.sample_grid[0]))
        members = (Representation.eval_point(at),)
        generated = f"single[{at:.12g}]"
    elif generator == "blocks-only":
        _needs(model, FunctionModel, generator)
        cs = model.structure.constraints
        members = tuple(Representation.block_eval(c.point, i) for c in cs for i in range(len(c.blocks)))
        if not members:
            raise UnsupportedModel("blocks-only needs a model with block constraints")
    else:
        raise UnsupportedModel(f"unknown family generator {generator!r}")
    if options:
        keys = ", ".join(sorted(options))
        raise ValueError(f"generator {generator!r} does not accept options: {keys}")
    if evals is not None:  # the evaluations, then the added members, checked as a family's own
        cols = (np.zeros(len(evals), int), model._grid[evals], np.full(len(evals), -1), evals)
        if members:
            cols = [np.concatenate(pair) for pair in zip(cols, _acting(members, model))]
        members = _layout(model, *cols)
    return RepFamily(model, members, generated if label is None else label)


_PRIM_ROWS = {"prim-all": slice(None), "toeplitz-pi": slice(1), "toeplitz-chars": slice(1, None)}
_PRIM_ROWS["toeplitz-all"] = _PRIM_ROWS["prim-all"]


def _needs(model, kind: type, generator: str):
    if not isinstance(model, kind):
        what = "function" if kind is FunctionModel else "symbol"
        raise UnsupportedModel(f"generator {generator!r} needs a {what} model")
