"""Declarative sweep specifications.

A :class:`SweepSpec` names the axes of a design-space exploration —
``workload``, ``engine``, ``policy``, ``seed`` and any
:class:`~repro.core.config.SimConfig` field — and the subsystem expands
their cross product into fully-resolved grid points.  Points that
differ only in ``seed`` are *replicates* of the same design point and
are aggregated statistically (see :mod:`repro.sweeps.stats`); every
other axis spans the design space proper.

Specs are frozen: deriving a variant (``with_seeds``, ``with_axis``)
returns a new spec, so the shipped presets can never be mutated by one
caller and silently corrupted for the next.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace

from repro.backend import get_backend
from repro.core.config import DEFAULT_CONFIG, SimConfig
from repro.core.workloads import workload_benchmarks
from repro.frontend.engine import EngineKind
from repro.frontend.policy import PolicySpec

RESERVED_AXES = ("workload", "engine", "policy", "seed")
"""Axes interpreted by the runner itself rather than as config fields."""

CONFIG_AXES = tuple(f.name for f in fields(SimConfig) if f.name != "seed")
"""Every SimConfig field usable as a sweep axis (``seed`` is reserved).
This includes ``backend``, whose only legal value is ``reference``."""

KNOWN_AXES = RESERVED_AXES + CONFIG_AXES

STRING_AXES = ("workload", "engine", "policy", "backend")
"""Axes whose values are strings (every other axis coerces to int)."""

ENGINES = tuple(kind.value for kind in EngineKind)
"""Legal ``engine`` axis values."""

METRICS = ("ipc", "ipfc")
"""Aggregated metrics; a spec's ``metric`` picks the primary one."""


def validate_axis(name: str) -> str:
    """Return ``name`` if it is a legal axis; raise with suggestions."""
    if name in KNOWN_AXES:
        return name
    close = difflib.get_close_matches(name, KNOWN_AXES, n=3)
    hint = f" (did you mean {', '.join(close)}?)" if close else ""
    raise ValueError(
        f"unknown sweep axis {name!r}{hint}; axes are "
        f"{', '.join(RESERVED_AXES)} or any SimConfig field")


def coerce_axis_value(axis: str, text: str):
    """Parse one ``--axis`` CLI token into the axis's value type.

    ``workload``/``engine``/``policy``/``backend`` values are strings;
    ``seed`` and every other ``SimConfig`` field are integers.
    """
    if axis in STRING_AXES:
        return text
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"axis {axis!r} takes integer values, got {text!r}") from None


def _workload_label(value) -> str:
    """Render a workload axis value (name or benchmark tuple)."""
    return value if isinstance(value, str) else "+".join(value)


def axis_label(axis: str, value) -> str:
    """Human/CSV-safe rendering of one axis value."""
    return _workload_label(value) if axis == "workload" else str(value)


@dataclass(frozen=True)
class SweepSpec:
    """One declarative design-space sweep.

    Attributes:
        name: Identifier (preset name or ``"custom"``).
        axes: Ordered ``(axis, values)`` pairs; expansion order follows
            declaration order.  Use :meth:`of` to build from a dict.
        cycles / warmup: Per-cell run windows (``None`` defers to the
            executing session's defaults).
        base_config: Configuration that non-swept fields come from.
        baseline: Partial design point (axis -> value) naming the
            speedup denominator; axes it omits take their first value.
        metric: Primary aggregated metric (``"ipc"`` or ``"ipfc"``).
        description: One-line intent, shown by ``--list-presets``.
    """

    name: str
    axes: tuple[tuple[str, tuple], ...]
    cycles: int | None = None
    warmup: int | None = None
    base_config: SimConfig = DEFAULT_CONFIG
    baseline: tuple[tuple[str, object], ...] = ()
    metric: str = "ipc"
    description: str = ""

    @classmethod
    def of(cls, name: str, axes: dict, *, cycles: int | None = None,
           warmup: int | None = None,
           base_config: SimConfig | None = None,
           baseline: dict | None = None, metric: str = "ipc",
           description: str = "") -> "SweepSpec":
        """Build (and validate) a spec from plain dicts."""
        axis_items = tuple((axis, tuple(values))
                           for axis, values in axes.items())
        return cls(name, axis_items, cycles=cycles, warmup=warmup,
                   base_config=base_config or DEFAULT_CONFIG,
                   baseline=tuple((baseline or {}).items()),
                   metric=metric, description=description)

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        seen = set()
        for axis, values in self.axes:
            validate_axis(axis)
            if axis in seen:
                raise ValueError(f"duplicate sweep axis {axis!r}")
            seen.add(axis)
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            if axis == "workload":
                for v in values:
                    if isinstance(v, str):
                        workload_benchmarks(v)   # raises with suggestions
            elif axis == "engine":
                for v in values:
                    if v not in ENGINES:
                        raise ValueError(
                            f"unknown engine {v!r}; engines are "
                            f"{', '.join(ENGINES)}")
            elif axis == "policy":
                for v in values:
                    PolicySpec.parse(v)
            elif axis == "backend":
                for v in values:
                    get_backend(v)       # raises naming "reference"
        if self.metric not in METRICS:
            raise ValueError(
                f"unknown metric {self.metric!r}; choose from "
                f"{', '.join(METRICS)}")
        axes = dict(self.axes)
        for axis, value in self.baseline:
            if axis == "seed":
                raise ValueError("baseline cannot pin the seed axis "
                                 "(replicates are aggregated)")
            if axis not in axes:
                validate_axis(axis)
                raise ValueError(
                    f"baseline names axis {axis!r} which the sweep does "
                    f"not vary")
            if value not in axes[axis]:
                raise ValueError(
                    f"baseline value {value!r} is not among axis "
                    f"{axis!r} values {list(axes[axis])}")

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------

    def axis_values(self) -> dict:
        """The axes as an ordered ``{axis: values}`` mapping."""
        return {axis: values for axis, values in self.axes}

    def with_axis(self, axis: str, values) -> "SweepSpec":
        """Replace (or append) one axis; returns a new spec."""
        validate_axis(axis)
        values = tuple(values)
        axes = dict(self.axes)
        axes[axis] = values
        return replace(self, axes=tuple(axes.items()))

    def with_seeds(self, n: int) -> "SweepSpec":
        """Set the replication axis to seeds ``0 .. n-1``."""
        if n < 1:
            raise ValueError(f"seeds must be >= 1, got {n}")
        return self.with_axis("seed", tuple(range(n)))

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------

    def points(self) -> list[dict]:
        """Cross product of every axis, in declaration order."""
        points = [{}]
        for axis, values in self.axes:
            points = [{**point, axis: value}
                      for point in points for value in values]
        return points

    def design_key(self, point: dict) -> tuple:
        """Grouping key: the point minus its ``seed`` coordinate."""
        return tuple((axis, point[axis]) for axis, _ in self.axes
                     if axis != "seed")

    def point_config(self, point: dict) -> SimConfig:
        """The :class:`SimConfig` a point runs under."""
        overrides = {axis: value for axis, value in point.items()
                     if axis not in ("workload", "engine", "policy")}
        return self.base_config.with_(**overrides) if overrides \
            else self.base_config

    def baseline_key(self) -> tuple:
        """The design key of the speedup denominator.

        Baseline axes the spec does not pin default to their *first*
        declared value, so every sweep has a well-defined baseline.
        """
        pinned = dict(self.baseline)
        return tuple((axis, pinned.get(axis, values[0]))
                     for axis, values in self.axes if axis != "seed")

    def n_cells(self) -> int:
        """Total grid points (replicates included)."""
        total = 1
        for _, values in self.axes:
            total *= len(values)
        return total
