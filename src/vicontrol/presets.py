"""Named benchmark configurations.

``constant-v1`` has no flux and no control, so the state is the constant
environment temperature and every error table is exactly zero; it exercises
plumbing.  ``contact-v1`` combines outgoing flux on gamma2 with a strong
sink on an interior box, which presses the state onto the obstacle and
keeps the contact set nonempty.  Both are artifact-chosen benchmarks on
the unit square with gamma1 on the bottom side.
"""

from __future__ import annotations


def box_control(value: float, x0: float, x1: float, y0: float, y1: float):
    """Indicator control: ``value`` on the closed box, else 0."""

    def g(x, y):
        return value if (x0 <= x <= x1 and y0 <= y <= y1) else 0.0

    return g


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
