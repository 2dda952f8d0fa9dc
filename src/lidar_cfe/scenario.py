"""Scene descriptions: named obstacle layouts around a sensor, plus a goal.

Scenario files are YAML whose keys are the fields of ``Scenario``; walls are
just thin rectangles. The sensor's forward axis is world +x (no robot pose
rotation is modeled), so goal features derive directly from the
origin-to-goal vector.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import yaml

from .errors import InputError
from .ga import require_int, require_real
from .geometry import CIRCLE, ORIGIN, RECTANGLE, ObstacleShape, Point2, raycast_scan, shape_overlaps_disk
from .scan import GoalFeatures, Scan


@dataclass(frozen=True)
class Scenario:
    """A named scene used to produce base scans and goal features.

    ``name`` is the stem of the files ``lidar-cfe scan`` writes. Neither the
    sensor origin nor the goal may lie inside an obstacle.
    """

    name: str
    goal: Point2
    origin: Point2 = ORIGIN
    obstacles: tuple[ObstacleShape, ...] = ()
    n_rays: int = 180
    max_range: float = 3.5

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not 0 < len(os.fsencode(self.name)) <= 200 or set("/\0") & set(self.name):
            raise ValueError(f"name must be a file name stem of 1 to 200 bytes without '/' or NUL, got {self.name!r}")
        require_int("n_rays", self.n_rays)
        if not 1 <= self.n_rays <= sys.maxsize:
            raise ValueError(f"n_rays must lie in [1, {sys.maxsize}], got {self.n_rays}")
        if not 0.0 < require_real("max_range", self.max_range) < math.inf:
            raise ValueError(f"max_range must be positive and finite, got {self.max_range}")
        self.goal_features()  # raises for a goal too far to measure
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for shape in self.obstacles:
            for what, point in (("goal", self.goal), ("sensor origin", self.origin)):
                if shape_overlaps_disk(shape, point, 0.0):
                    raise ValueError(f"{what} ({point.x}, {point.y}) lies inside a {shape.kind} obstacle")

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
        """2·√2·``max_range``, the ``CfeQuery`` default of ``d_g_max`` for this scene's base scan.

        Only the benchmark's tests call it; it goes when they build their query instead.
        """
        return 2.0 * math.sqrt(2.0) * self.max_range


def _pair(value, where: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputError(f"{where}: expected a pair of numbers, got {value!r}")
    return tuple(value)


def _point(value, where: str) -> Point2:
    try:
        return Point2(*_pair(value, where))
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def _obstacle(entry, where: str) -> ObstacleShape:
    if not isinstance(entry, dict):
        raise InputError(f"{where}: expected a mapping with a 'kind' field")
    kind = entry.get("kind")
    if kind not in (CIRCLE, RECTANGLE):
        raise InputError(f"{where}: unknown obstacle kind {kind!r}")
    refuse_unknown(entry, {"kind", *_OBSTACLE_KEYS[kind]}, where, f" for a {kind}")
    return build(ObstacleShape, entry, where, _READERS)


def _obstacles(value, where: str) -> tuple[ObstacleShape, ...]:
    if not isinstance(value, list):
        raise InputError(f"{where}: expected a list")
    return tuple(_obstacle(entry, f"{where}[{i}]") for i, entry in enumerate(value))


# An obstacle entry holds ``kind`` and the ObstacleShape fields of that kind. A
# null or missing field takes the ObstacleShape default, so a rectangle may
# omit ``orientation``.
_OBSTACLE_KEYS = {CIRCLE: ("center", "radius"), RECTANGLE: ("center", "half_extents", "orientation")}

# How each scenario-file value that is not passed on as written is read, and
# how an obstacle value is written back (default: as a float). The
# constructors check the numbers.
_READERS = {"origin": _point, "goal": _point, "obstacles": _obstacles, "center": _point, "half_extents": _pair}
_WRITERS = {"center": lambda point: [point.x, point.y], "half_extents": list}


def _obstacle_entry(shape: ObstacleShape) -> dict:
    """The scenario-file entry of ``shape``; results.json writes obstacles in this form too."""
    return {"kind": shape.kind, **{key: _WRITERS.get(key, float)(getattr(shape, key)) for key in _OBSTACLE_KEYS[shape.kind]}}


class _Yaml12Loader(yaml.SafeLoader):
    """The safe loader, also reading YAML 1.2 floats that YAML 1.1 leaves as strings.

    YAML 1.1 wants a dot and a signed exponent (``1.0e-3``), so ``1e-3``,
    ``1E+2`` and ``1.5e3`` would load as text. A key repeated in one mapping
    is an error, as YAML 1.2 requires; a merge key (``<<``) is not a key.
    """

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"] if isinstance(node, yaml.MappingNode) else []
        mapping, seen = super().construct_mapping(node, deep), set()
        for key_node in own:
            key = self.construct_object(key_node)  # built and checked hashable above
            if key in seen:
                raise yaml.constructor.ConstructorError("while constructing a mapping", node.start_mark, f"found repeated key {key!r}", key_node.start_mark)
            seen.add(key)
        return mapping


_Yaml12Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def parse_yaml(text: str):
    """Parse YAML text with the safe loader; exponent numbers read as floats."""
    return yaml.load(text, Loader=_Yaml12Loader)


def _json_object(pairs: list) -> dict:
    """The ``object_pairs_hook`` of every JSON input: a repeated key is an error, as in YAML."""
    data = dict(pairs)
    if len(data) < len(pairs):
        raise ValueError(f"repeated key {next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))!r}")
    return data


def read_mapping(path) -> dict:
    """The top-level mapping of a UTF-8 file: JSON for a ``.json`` file, YAML 1.2 otherwise."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        data = json.loads(text, object_pairs_hook=_json_object) if path.suffix == ".json" else parse_yaml(text)
    except (OSError, ValueError, yaml.YAMLError) as exc:  # a UnicodeDecodeError or a JSON error is a ValueError
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a top-level mapping")
    return data


def refuse_unknown(data: dict, known, where: str, note: str = "") -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise InputError(f"{where}: unknown fields {sorted(unknown, key=str)}{note}")


def build(cls, data, where: str, readers=None):
    """``cls`` built from the file mapping ``data`` of its fields, each key in ``readers`` read by its reader.

    A null takes the field's default unless its annotation (text: it is postponed) admits None. Raises ``InputError`` naming ``where``.
    """
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected a mapping of {cls.__name__} fields")
    known = {f.name: f for f in fields(cls)}
    refuse_unknown(data, known, where)
    values = {key: readers[key](value, f"{where}: {key}") if value is not None and key in (readers or ()) else value
              for key, value in data.items() if value is not None or "None" in known[key].type.split(" | ")}
    for name, f in known.items():
        if name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise InputError(f"{where}: missing field {name!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from None


def load_scenario(path) -> Scenario:
    """Parse and validate a YAML scenario file, whose keys are the fields of ``Scenario``.

    A missing or null key takes the field's default (``name``: the file stem); an unknown key is an input error.
    """
    path = Path(path)
    data = read_mapping(path)
    if data.get("name") is None:
        data["name"] = path.stem
    return build(Scenario, data, str(path), _READERS)
