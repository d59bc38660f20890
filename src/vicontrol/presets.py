"""Named benchmark configurations.

``constant-v1`` has no flux and no control, so the state is the constant
environment temperature and every error table is exactly zero; it exercises
plumbing.  ``contact-v1`` combines outgoing flux on gamma2 with a strong
sink on an interior box, which presses the state onto the obstacle and
keeps the contact set nonempty.  Both are artifact-chosen benchmarks on
the unit square with gamma1 on the bottom side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Indicator control: ``value`` on the closed box [x0, x1] x [y0, y1], else 0,
    built as ``box_control(value, x0, x1, y0, y1)``.  A call on a point and
    :meth:`at` on coordinate arrays read one predicate, :meth:`holds`."""

    value: float
    x0: float
    x1: float
    y0: float
    y1: float

    def holds(self, x, y):
        return (self.x0 <= x) & (x <= self.x1) & (self.y0 <= y) & (y <= self.y1)

    def __call__(self, x: float, y: float) -> float:
        return self.value if self.holds(x, y) else 0.0

    def at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.where(self.holds(x, y), float(self.value), 0.0)


box_control = Box


PRESETS: dict[str, dict[str, str]] = {
    "constant-v1": {
        "n": "8",
        "gamma1": "bottom",
        "alpha": "1",
        "b": "1",
        "q": "0",
        "M": "1",
        "g": "0",
    },
    "contact-v1": {
        "n": "8",
        "gamma1": "bottom",
        "alpha": "2",
        "b": "1",
        "q": "1",
        "M": "1",
        "g": "box:-20:0.25:0.75:0.25:0.75",
    },
}
