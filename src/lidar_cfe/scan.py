"""Range-scan data and model-state assembly."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ga import require_real


@dataclass(frozen=True, eq=False)
class Scan:
    """A full sweep of range readings around the sensor origin.

    ``readings[i]`` is the distance in meters along heading ``2*pi*i/n``;
    rays that hit nothing read exactly ``max_range``, so a reading below
    ``max_range`` always means an actual return.
    """

    readings: np.ndarray
    max_range: float

    def __post_init__(self) -> None:
        readings = np.array(self.readings)
        listed = self.readings if isinstance(self.readings, (list, tuple)) else ()  # numpy reads a bool among numbers as a number
        if readings.dtype.kind not in "iuf" or any(isinstance(v, (bool, np.bool_)) for v in listed):
            raise ValueError("readings must be real numbers, not bools, strings or other objects")
        readings = readings.astype(float, copy=False)
        if readings.ndim != 1 or readings.size == 0:
            raise ValueError("readings must be a non-empty 1-d array")
        if not 0.0 < require_real("max_range", self.max_range) < math.inf:
            raise ValueError(f"max_range must be positive and finite, got {self.max_range}")
        if not np.all((readings > 0.0) & (readings <= self.max_range)):
            raise ValueError("every reading must lie in (0, max_range]")
        readings.flags.writeable = False
        object.__setattr__(self, "readings", readings)
        object.__setattr__(self, "max_range", float(self.max_range))

    @property
    def n(self) -> int:
        return int(self.readings.size)

    @classmethod
    def empty(cls, n: int = 180, max_range: float = 3.5) -> "Scan":
        """A scan that saw nothing: every ray at max_range."""
        return cls(np.full(n, float(max_range)), max_range)


@dataclass(frozen=True)
class GoalFeatures:
    """Bearing (as cosine and sine) and distance from the sensor to the goal."""

    cos: float
    sin: float
    distance: float

    def __post_init__(self) -> None:
        for name in ("cos", "sin", "distance"):
            if not math.isfinite(require_real(f"goal {name}", getattr(self, name))):
                raise ValueError(f"goal {name} must be finite, got {getattr(self, name)!r}")
        if abs(self.cos * self.cos + self.sin * self.sin - 1.0) > 1e-6:
            raise ValueError("goal cos/sin must lie on the unit circle (within 1e-6)")
        if not self.distance >= 0.0:
            raise ValueError(f"goal distance must be non-negative, got {self.distance}")


@dataclass(frozen=True, eq=False)
class ModelState:
    """Normalized policy input: n range values, then goal cos, sin, distance.

    Every element lies in [0, 1].
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size < 4:
            raise ValueError("state must be 1-d with at least 4 entries")
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("state values must lie in [0, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


def goal_state(goal: GoalFeatures, d_g_max: float) -> np.ndarray:
    """The last three model-state values: goal cos and sin mapped through (v + 1) / 2, and distance / d_g_max.

    ``d_g_max`` is positive and finite (``CfeQuery`` checks it, and warns
    when the distance exceeds it). Every value is clipped to [0, 1]: a
    distance beyond d_g_max clamps to 1, and cos/sin may sit a hair outside
    the unit circle (1e-6 tolerance).
    """
    return np.clip([(goal.cos + 1.0) / 2.0, (goal.sin + 1.0) / 2.0, goal.distance / d_g_max], 0.0, 1.0)


def state_rows(readings: np.ndarray, max_range: float, goal_part: np.ndarray) -> np.ndarray:
    """Model states for a (P, n) array of scans sharing one goal: readings
    divided by max_range, then the :func:`goal_state` values, one row each.

    The caller checks its readings; this is the scoring hot path.
    """
    n = readings.shape[1]
    states = np.empty((len(readings), n + goal_part.size))
    np.divide(readings, max_range, out=states[:, :n])
    states[:, n:] = goal_part
    return states


def assemble_state(scan: Scan, goal: GoalFeatures, d_g_max: float) -> ModelState:
    """Build the normalized model input from a scan and goal features: one :func:`state_rows` row."""
    return ModelState(state_rows(scan.readings[np.newaxis], scan.max_range, goal_state(goal, d_g_max))[0])
