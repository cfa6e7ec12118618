"""Declarative sweep specifications.

A :class:`SweepSpec` describes a family of experiments as a *base* plus a
set of *axes*; :meth:`SweepSpec.expand` turns it into the concrete list of
:class:`~repro.harness.runner.ExperimentConfig` objects a
:class:`~repro.sweep.engine.SweepEngine` executes.

The base is a **workload name** from :data:`repro.harness.configs.WORKLOADS`
(``"static_path"``, ``"backbone_churn"``, ...) or a **spec** mapping (see
:mod:`repro.harness.configs`).  Every point is its base spec with the
point's keys laid over it, rebuilt by :func:`repro.harness.configs.build`,
so axes range over any spec key (``n``, ``seed``, ``b0``, ``rho``,
``algorithm``, ``horizon``, ``delay_spec``, ...) and a churn process or
adversary built from ``horizon`` or T + D is rebuilt with them.

Axes come from three combinators, composed by cartesian product:

>>> spec = SweepSpec("static_path", base={"horizon": 150.0},
...                  axes=[grid(n=[8, 16, 32]), seeds(3)])
>>> len(spec.expand())
9

:func:`grid` is the cartesian product of its keyword ranges, :func:`zip_`
advances its ranges in lockstep (they must be equally long), and
:func:`seeds` is shorthand for a seed axis.  Expansion order is
deterministic: the last axis varies fastest, exactly like nested loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

from ..harness.configs import WORKLOADS, build
from ..harness.runner import ExperimentConfig

__all__ = ["Axis", "SweepSpec", "grid", "seeds", "zip_"]


@dataclass(frozen=True)
class Axis:
    """One sweep dimension: an ordered list of keyword-override points."""

    points: tuple[dict[str, Any], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("an axis must contain at least one point")

    def __len__(self) -> int:
        return len(self.points)


def _as_range(name: str, values: Any) -> list[Any]:
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise TypeError(
            f"axis {name!r} needs an iterable of values; got {values!r} "
            "(wrap single values in a list, or put them in the base)"
        )
    out = list(values)
    if not out:
        raise ValueError(f"axis {name!r} has no values")
    return out


def grid(**ranges: Any) -> Axis:
    """Cartesian product over the given ranges (last key varies fastest)."""
    if not ranges:
        raise ValueError("grid() needs at least one keyword range")
    keys = list(ranges)
    lists = [_as_range(k, ranges[k]) for k in keys]
    return Axis(
        tuple(dict(zip(keys, combo)) for combo in itertools.product(*lists))
    )


def zip_(**ranges: Any) -> Axis:
    """Lockstep combination: i-th point takes the i-th value of every range."""
    if not ranges:
        raise ValueError("zip_() needs at least one keyword range")
    keys = list(ranges)
    lists = [_as_range(k, ranges[k]) for k in keys]
    lengths = {len(v) for v in lists}
    if len(lengths) != 1:
        raise ValueError(
            f"zip_() ranges must be equally long; got lengths "
            f"{ {k: len(v) for k, v in zip(keys, lists)} }"
        )
    return Axis(tuple(dict(zip(keys, combo)) for combo in zip(*lists)))


def seeds(spec: int | Iterable[int]) -> Axis:
    """A seed axis: ``seeds(3)`` -> seeds 0, 1, 2; or pass explicit seeds."""
    values = list(range(spec)) if isinstance(spec, int) else [int(s) for s in spec]
    if not values:
        raise ValueError("seeds() needs at least one seed")
    return Axis(tuple({"seed": s} for s in values))


def _point_label(overrides: Mapping[str, Any]) -> str:
    return ",".join(f"{k}={overrides[k]}" for k in sorted(overrides))


@dataclass(frozen=True)
class SweepSpec:
    """A base workload plus sweep axes; expands to concrete configs.

    Attributes
    ----------
    workload:
        A name from :data:`repro.harness.configs.WORKLOADS` or a spec
        mapping.
    base:
        Spec keys applied at every point.
    axes:
        Sweep dimensions, combined by cartesian product in order (the last
        axis varies fastest).  An empty list expands to the single base
        point.
    name:
        Optional sweep label; defaults to the workload name.
    """

    workload: str | Mapping[str, Any]
    base: dict[str, Any] = field(default_factory=dict)
    axes: Sequence[Axis] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.workload, str):
            if self.workload not in WORKLOADS:
                raise KeyError(
                    f"unknown workload {self.workload!r}; choose from "
                    f"{sorted(WORKLOADS)}"
                )
        elif not isinstance(self.workload, Mapping):
            raise TypeError(
                "workload must be a WORKLOADS name or a spec mapping; "
                f"got {type(self.workload).__name__}"
            )

    @property
    def spec(self) -> Mapping[str, Any]:
        """The base spec every point is laid over."""
        if isinstance(self.workload, str):
            return WORKLOADS[self.workload].spec
        return self.workload

    @property
    def label(self) -> str:
        """Human-readable sweep name."""
        if self.name:
            return self.name
        return self.workload if isinstance(self.workload, str) else "spec"

    def points(self) -> list[dict[str, Any]]:
        """The merged override dict of every sweep point, in expansion order."""
        axis_points = [axis.points for axis in self.axes]
        merged: list[dict[str, Any]] = []
        for combo in itertools.product(*axis_points) if axis_points else [()]:
            overrides: dict[str, Any] = dict(self.base)
            axis_keys: set[str] = set()
            for point in combo:
                overlap = set(point) & axis_keys
                if overlap:
                    raise ValueError(
                        f"axes assign {sorted(overlap)} more than once; "
                        "use a single axis per key"
                    )
                axis_keys |= set(point)
                overrides.update(point)
            merged.append(overrides)
        return merged

    def expand(self) -> list[ExperimentConfig]:
        """Expand into concrete configs, one per sweep point."""
        out: list[ExperimentConfig] = []
        for overrides in self.points():
            cfg = build({**self.spec, **overrides})
            point_keys = {k for axis in self.axes for p in axis.points for k in p}
            label_overrides = {k: overrides[k] for k in sorted(point_keys & set(overrides))}
            if label_overrides:
                suffix = _point_label(label_overrides)
                cfg = replace(cfg, name=f"{cfg.name or self.label}[{suffix}]")
            elif not cfg.name:
                cfg = replace(cfg, name=self.label)
            out.append(cfg)
        return out

    def __len__(self) -> int:
        total = 1
        for axis in self.axes:
            total *= len(axis)
        return total
