"""Named gallery models and family generators.

Scenario files and tests refer to models and families by these names,
so the builders must stay deterministic: same name and parameters, same
object, member order included.
"""

from __future__ import annotations

from .errors import UnsupportedModel
from .models import (
    BaseSpace,
    BlockStructure,
    FunctionModel,
    Representation,
    ToeplitzModel,
    enum_prim,
)
from .families import RepFamily

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


def build_model(name: str, **params):
    """Gallery model by name.

    interval-matrix: 2x2 fibers on [0, 1], diagonal constraint at 1
                     (params: step, dim, constraint_point)
    interval-scalar: scalar fibers on [0, 1]          (params: step)
    circle-scalar:   scalar fibers on the circle      (params: step)
    discrete:        finite base                      (params: points, dim)
    toeplitz:        symbol plus corner corrections   (params: theta_count, sections)
    """
    if name == "interval-matrix":
        step = float(params.pop("step", 1.0 / 8))
        dim = int(params.pop("dim", 2))
        at = float(params.pop("constraint_point", 1.0))
        _reject_extras(name, params)
        return FunctionModel(BaseSpace.interval(step), BlockStructure.diagonal_at(dim, at))
    if name == "interval-scalar":
        step = float(params.pop("step", 1.0 / 8))
        _reject_extras(name, params)
        return FunctionModel(BaseSpace.interval(step), BlockStructure.unconstrained(1))
    if name == "circle-scalar":
        step = float(params.pop("step", 1.0 / 8))
        _reject_extras(name, params)
        return FunctionModel(BaseSpace.circle(step), BlockStructure.unconstrained(1))
    if name == "discrete":
        points = int(params.pop("points", 4))
        dim = int(params.pop("dim", 2))
        _reject_extras(name, params)
        return FunctionModel(BaseSpace.discrete(points), BlockStructure.unconstrained(dim))
    if name == "toeplitz":
        theta_count = int(params.pop("theta_count", 16))
        sections = params.pop("sections", (8, 16, 32, 64, 128))
        _reject_extras(name, params)
        return ToeplitzModel.standard(theta_count, tuple(int(n) for n in sections))
    raise UnsupportedModel(f"unknown gallery model {name!r}")


def _reject_extras(name: str, params: dict):
    if params:
        keys = ", ".join(sorted(params))
        raise ValueError(f"model {name!r} does not accept parameters: {keys}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12


def build_family(model, generator: str, **options) -> RepFamily:
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
    """
    label = generator
    members: list[Representation] = []
    if generator == "prim-all":
        members = list(enum_prim(model))
    elif generator == "eval-grid":
        _needs_function_model(model, generator)
        excluded = [float(t) for t in options.pop("exclude_points", ())]
        added = [(float(t), int(i)) for t, i in options.pop("add_blocks", ())]
        for x in excluded:
            if not any(_close(t, x) for t in model.space.sample_grid):
                raise ValueError(f"excluded point {x!r} is not a grid point")
        for t in model.space.sample_grid:
            if any(_close(t, x) for x in excluded):
                continue
            members.append(Representation.eval_point(t))
        for t, i in added:
            members.append(Representation.block_eval(t, i))
        if excluded or added:
            label = f"{generator}[-{len(excluded)}+{len(added)}]"
    elif generator == "coarse":
        _needs_function_model(model, generator)
        stride = int(options.pop("stride", 2))
        if stride < 1:
            raise ValueError("stride must be at least 1")
        for k, t in enumerate(model.space.sample_grid):
            if k % stride == 0:
                members.append(Representation.eval_point(t))
        label = f"coarse[{stride}]"
    elif generator == "single":
        _needs_function_model(model, generator)
        at = float(options.pop("at", model.space.sample_grid[0]))
        members = [Representation.eval_point(at)]
        label = f"single[{at:.12g}]"
    elif generator == "blocks-only":
        _needs_function_model(model, generator)
        for c in model.structure.constraints:
            for i in range(len(c.blocks)):
                members.append(Representation.block_eval(c.point, i))
        if not members:
            raise UnsupportedModel("blocks-only needs a model with block constraints")
    elif generator == "toeplitz-pi":
        _needs_toeplitz_model(model, generator)
        members = [Representation.toeplitz_identity()]
    elif generator == "toeplitz-chars":
        _needs_toeplitz_model(model, generator)
        members = [Representation.toeplitz_character(th) for th in model.thetas]
    elif generator == "toeplitz-all":
        _needs_toeplitz_model(model, generator)
        members = [Representation.toeplitz_identity()]
        members += [Representation.toeplitz_character(th) for th in model.thetas]
    else:
        raise UnsupportedModel(f"unknown family generator {generator!r}")
    if options:
        keys = ", ".join(sorted(options))
        raise ValueError(f"generator {generator!r} does not accept options: {keys}")
    return RepFamily(model, tuple(members), label)


def _needs_function_model(model, generator: str):
    if not isinstance(model, FunctionModel):
        raise UnsupportedModel(f"generator {generator!r} needs a function model")


def _needs_toeplitz_model(model, generator: str):
    if not isinstance(model, ToeplitzModel):
        raise UnsupportedModel(f"generator {generator!r} needs a symbol model")
