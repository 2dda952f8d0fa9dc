"""Scene descriptions: named obstacle layouts around a sensor, plus a goal.

Scenario files are YAML; walls are just thin rectangles. The sensor's
forward axis is world +x (no robot pose rotation is modeled), so goal
features derive directly from the origin-to-goal vector.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import InputError
from .geometry import CIRCLE, RECTANGLE, ObstacleShape, Point2, raycast_scan, shape_overlaps_disk
from .scan import GoalFeatures, Scan


@dataclass(frozen=True)
class Scenario:
    """A named scene used to produce base scans and goal features."""

    name: str
    origin: Point2
    goal: Point2
    obstacles: tuple[ObstacleShape, ...]
    n_rays: int = 180
    max_range: float = 3.5
    d_g_max: float | None = None

    def __post_init__(self) -> None:
        if self.n_rays < 1:
            raise ValueError(f"n_rays must be >= 1, got {self.n_rays}")
        if not 0.0 < self.max_range < math.inf:
            raise ValueError(f"max_range must be positive and finite, got {self.max_range}")
        if self.d_g_max is not None and not self.d_g_max > 0.0:
            raise ValueError(f"d_g_max must be > 0, got {self.d_g_max}")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for shape in self.obstacles:
            if shape_overlaps_disk(shape, self.goal, 0.0):
                raise ValueError(f"goal ({self.goal.x}, {self.goal.y}) lies inside a {shape.kind} obstacle")

    def goal_features(self) -> GoalFeatures:
        """Bearing and distance to the goal as seen from the sensor."""
        dx = self.goal.x - self.origin.x
        dy = self.goal.y - self.origin.y
        d = math.hypot(dx, dy)
        if d == 0.0:
            return GoalFeatures(1.0, 0.0, 0.0)  # goal on the sensor: bearing defaults forward
        return GoalFeatures(dx / d, dy / d, d)

    def base_scan(self) -> Scan:
        return raycast_scan(self.origin, self.obstacles, self.n_rays, self.max_range)

    def goal_distance_scale(self) -> float:
        """Goal-distance normalizer; defaults to the diagonal of the scan's square extent."""
        if self.d_g_max is not None:
            return self.d_g_max
        return 2.0 * math.sqrt(2.0) * self.max_range


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise InputError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _point(value, where: str) -> Point2:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputError(f"{where}: expected [x, y]")
    try:
        return Point2(_number(value[0], where), _number(value[1], where))
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def _obstacle(entry, where: str) -> ObstacleShape:
    if not isinstance(entry, dict):
        raise InputError(f"{where}: expected a mapping with a 'kind' field")
    kind = _require(entry, "kind", where)
    center = _point(_require(entry, "center", where), f"{where}.center")
    try:
        if kind == CIRCLE:
            return ObstacleShape.circle(center, _number(_require(entry, "radius", where), f"{where}.radius"))
        if kind == RECTANGLE:
            extents = _require(entry, "half_extents", where)
            if not isinstance(extents, (list, tuple)) or len(extents) != 2:
                raise InputError(f"{where}.half_extents: expected [hx, hy]")
            hx = _number(extents[0], f"{where}.half_extents")
            hy = _number(extents[1], f"{where}.half_extents")
            orientation = _number(entry.get("orientation", 0.0), f"{where}.orientation")
            return ObstacleShape.rectangle(center, (hx, hy), orientation)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None
    raise InputError(f"{where}: unknown obstacle kind {kind!r}")


class _Yaml12Loader(yaml.SafeLoader):
    """The safe loader, also reading YAML 1.2 floats that YAML 1.1 leaves as strings.

    YAML 1.1 wants a dot and a signed exponent (``1.0e-3``), so ``1e-3``,
    ``1E+2`` and ``1.5e3`` would load as text.
    """


_Yaml12Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def parse_yaml(text: str):
    """Parse YAML text with the safe loader; exponent numbers read as floats."""
    return yaml.load(text, Loader=_Yaml12Loader)


def load_yaml_mapping(path) -> dict:
    """Read a YAML file that must contain a top-level mapping."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        data = parse_yaml(text)
    except yaml.YAMLError as exc:
        raise InputError(f"{path}: invalid YAML ({exc})") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a top-level mapping")
    return data


def load_scenario(path) -> Scenario:
    """Parse and validate a YAML scenario file."""
    path = Path(path)
    data = load_yaml_mapping(path)
    where = str(path)
    raw_obstacles = data.get("obstacles", [])
    if raw_obstacles is None:
        raw_obstacles = []
    if not isinstance(raw_obstacles, list):
        raise InputError(f"{where}: obstacles must be a list")
    obstacles = tuple(_obstacle(entry, f"{where}: obstacles[{i}]") for i, entry in enumerate(raw_obstacles))
    name = data.get("name", path.stem)
    origin = _point(data.get("origin", [0.0, 0.0]), f"{where}: origin")
    goal = _point(_require(data, "goal", where), f"{where}: goal")
    n_rays = data.get("n_rays", 180)
    if not isinstance(n_rays, int) or isinstance(n_rays, bool):
        raise InputError(f"{where}: n_rays must be an integer")
    max_range = _number(data.get("max_range", 3.5), f"{where}: max_range")
    d_g_max = data.get("d_g_max")
    if d_g_max is not None:
        d_g_max = _number(d_g_max, f"{where}: d_g_max")
    try:
        return Scenario(
            name=str(name),
            origin=origin,
            goal=goal,
            obstacles=obstacles,
            n_rays=n_rays,
            max_range=max_range,
            d_g_max=d_g_max,
        )
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None
