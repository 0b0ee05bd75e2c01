"""Declarative campaign specifications and their deterministic expansion.

A :class:`CampaignSpec` is data, exactly like a
:class:`~repro.faults.plan.FaultPlan`: it names *what* to sweep (axes),
*which* workload families to run over the grid (plus baseline families
for frontier comparisons), and *how many* seeded repetitions each grid
cell gets.  :func:`expand` turns a spec into an ordered, fully explicit
run matrix of :class:`CampaignPoint` records — the expansion is pure and
deterministic, so the same spec and base seed always produce the same
matrix, which is what lets CI gate a committed campaign snapshot
byte-for-byte (docs/CAMPAIGNS.md).

Baseline families usually accept only a subset of the swept axes (a
gossip detector has no broker count); expansion projects the grid onto
each family's accepted axes and de-duplicates, so baselines run *the
same grid* without repeating identical work for axes they ignore.
"""

from __future__ import annotations

import itertools
import json
import pathlib
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ValidationError
from repro.util.serialization import Fields

#: Axis values must stay JSON scalars so specs and snapshots round-trip.
_SCALAR_TYPES = (int, float, str, bool)


@dataclass(frozen=True, slots=True)
class Axis:
    """One swept parameter: a name and its ordered list of values."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("axis needs a name")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValidationError(f"axis {self.name!r} needs at least one value")
        for value in self.values:
            if not isinstance(value, _SCALAR_TYPES):
                raise ValidationError(
                    f"axis {self.name!r} value {value!r} is not a JSON scalar"
                )


@dataclass(frozen=True, slots=True)
class CampaignSpec:
    """A named, declarative parameter-sweep campaign.

    ``axes`` are swept (cartesian product, in declaration order);
    ``fixed`` parameters apply to every point unchanged.  ``workloads``
    and ``baselines`` name families from
    :mod:`repro.campaigns.workloads`; baselines run the same grid
    projected onto the axes they accept.  ``repetitions`` replicates
    every grid cell at ``base_seed + repetition`` so seed stability is
    part of the sweep itself.
    """

    name: str
    workloads: tuple[str, ...]
    axes: tuple[Axis, ...] = ()
    baselines: tuple[str, ...] = ()
    fixed: dict = field(default_factory=dict)
    repetitions: int = 1
    base_seed: int = 42
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign spec needs a name")
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "baselines", tuple(self.baselines))
        if not self.workloads:
            raise ConfigurationError(
                f"campaign {self.name!r} needs at least one workload family"
            )
        if self.repetitions < 1:
            raise ValidationError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        seen: set[str] = set()
        for axis in self.axes:
            if axis.name in seen:
                raise ValidationError(f"duplicate axis {axis.name!r}")
            seen.add(axis.name)
        for name, value in self.fixed.items():
            if name in seen:
                raise ValidationError(
                    f"{name!r} is both a swept axis and a fixed parameter"
                )
            if not isinstance(value, _SCALAR_TYPES):
                raise ValidationError(
                    f"fixed parameter {name!r} value {value!r} is not a "
                    "JSON scalar"
                )

    def to_dict(self) -> dict:
        """JSON-ready spec form; :meth:`from_dict` round-trips it."""
        return {
            "name": self.name,
            "description": self.description,
            "workloads": list(self.workloads),
            "baselines": list(self.baselines),
            "axes": [
                {"name": axis.name, "values": list(axis.values)}
                for axis in self.axes
            ],
            "fixed": dict(self.fixed),
            "repetitions": self.repetitions,
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Parse a spec dict; raises on malformed or non-scalar input."""
        fields = Fields(data, cls)
        axes = [Fields(axis, Axis) for axis in fields.items("axes", ())]
        return cls(
            name=fields.text("name"),
            description=fields.text("description", ""),
            workloads=fields.texts("workloads"),
            baselines=fields.texts("baselines", ()),
            axes=tuple(
                Axis(name=axis.text("name"), values=tuple(axis.items("values")))
                for axis in axes
            ),
            fixed=dict(fields.mapping("fixed", {})),
            repetitions=fields.integer("repetitions", 1),
            base_seed=fields.integer("base_seed", 42),
        )


def load_spec(path: str | pathlib.Path) -> CampaignSpec:
    """Load and validate a JSON campaign spec file."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read campaign spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"campaign spec {path} is not valid JSON: {exc}") from exc
    return CampaignSpec.from_dict(data)


@dataclass(frozen=True, slots=True)
class CampaignPoint:
    """One fully resolved run: a family, its parameters, and a seed."""

    index: int
    family: str
    kind: str  # "workload" | "baseline"
    params: dict
    seed: int
    repetition: int

    def label(self) -> str:
        """Short stable label used in reports and progress lines."""
        parts = [f"{k}={self.params[k]}" for k in sorted(self.params)]
        return f"{self.family}[{', '.join(parts)}] seed={self.seed}"


def expand(spec: CampaignSpec, seed: int | None = None) -> tuple[CampaignPoint, ...]:
    """Expand a spec into its deterministic, ordered run matrix.

    Point order is: workload families in declaration order, then baseline
    families; within a family, the cartesian product of axis values in
    axis order; within a cell, repetitions at ``seed + repetition``.
    ``seed`` overrides the spec's ``base_seed`` (the CLI's ``--seed``).

    Every family must be registered.  Parameters a family does not
    accept — swept axes *and* fixed parameters alike — are projected
    away: the family runs the de-duplicated sub-grid of the parameters
    it understands, so baselines sweep the same campaign without
    repeating identical work for axes they ignore.  (A parameter no
    family accepts is a spec bug; :func:`unused_parameters` surfaces
    those.)
    """
    from repro.campaigns.workloads import workload_family

    base_seed = spec.base_seed if seed is None else seed
    points: list[CampaignPoint] = []
    families = [(name, "workload") for name in spec.workloads]
    families += [(name, "baseline") for name in spec.baselines]
    for family_name, kind in families:
        family = workload_family(family_name)
        accepted_axes = [a for a in spec.axes if a.name in family.accepts]
        seen_cells: set[tuple] = set()
        for combo in itertools.product(*(a.values for a in accepted_axes)):
            cell = tuple(zip((a.name for a in accepted_axes), combo))
            if cell in seen_cells:
                continue
            seen_cells.add(cell)
            params = {
                name: value
                for name, value in spec.fixed.items()
                if name in family.accepts
            }
            params.update(cell)
            for repetition in range(spec.repetitions):
                points.append(
                    CampaignPoint(
                        index=len(points),
                        family=family_name,
                        kind=kind,
                        params=params,
                        seed=base_seed + repetition,
                        repetition=repetition,
                    )
                )
    return tuple(points)


def unused_parameters(spec: CampaignSpec) -> tuple[str, ...]:
    """Spec parameters (axes or fixed) that *no* named family accepts.

    Projection makes per-family mismatches silent by design, so this is
    the lint for outright typos: a parameter every family projects away
    sweeps nothing and is almost certainly a spelling mistake.
    """
    from repro.campaigns.workloads import workload_family

    accepted: set[str] = set()
    for name in (*spec.workloads, *spec.baselines):
        accepted |= workload_family(name).accepts
    names = [axis.name for axis in spec.axes] + list(spec.fixed)
    return tuple(n for n in names if n not in accepted)
