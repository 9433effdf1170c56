"""Reference formulas that the output checks compare the program against.

They are written from the model's definitions (see the package README), not
imported from the package, so that a bug in the package cannot cancel out of
a check.  Parameters are dicts keyed by config names (``lambda``, ``r``, ...).
"""

from __future__ import annotations

import math

import numpy as np


def drift(p: dict, x: tuple, u: tuple) -> tuple[float, float, float]:
    """Mean-field drift ``(dx_R, dx_H, dx_C)`` at ``x`` under intent ``u = (u_H, u_C)``."""
    x_r, x_h, x_c = x
    c_to_r = (p["b"] + p["q_soc"] * x_h) * x_c
    r_to_h = p["r"] * x_r
    h_to_c = (p["lambda"] * u[0] + p["q_inf"] * x_c) * x_h
    c_to_h = p["lambda"] * u[1] * x_c
    return (c_to_r - r_to_h, r_to_h - h_to_c + c_to_h, h_to_c - c_to_h - c_to_r)


def rate_scale(p: dict) -> float:
    """Sum of the rates; the program's ODE step guard is ``0.1 / rate_scale``."""
    return p["lambda"] + p["r"] + p["b"] + p["q_soc"] + p["q_inf"]


def threshold(p: dict, rate: float) -> float:
    """Regime threshold ``x_bar`` with recruitment rate ``rate`` (``r``, or ``r + delta``)."""
    bracket = rate * (p["w_C"] - p["w_H"]) / (p["w_H"] - p["w_R"] + rate * p["f"]) - p["b"]
    if p["q_soc"] > 0.0:
        return bracket / p["q_soc"]
    return -math.inf if bracket < 0.0 else math.inf


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    scaled = a / 2.0**squarings
    term = np.eye(len(a))
    total = term.copy()
    for k in range(1, 20):
        term = term @ scaled / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def tagged_agent_expectations(p: dict, x: tuple, u: tuple, horizon: float) -> tuple[float, float]:
    """Expected payoff and expected number of jumps of one agent over ``[0, horizon]``.

    The agent starts in H with intent ``u`` against the background frozen at
    ``x``, so it is a 3-state chain with a constant generator; both
    expectations are ``e_H^T (integral of e^{Qt} dt) v`` and come from one
    augmented matrix exponential (Van Loan 1978).
    """
    _, x_h, x_c = x
    detect = p["b"] + p["q_soc"] * x_h
    h_out = p["lambda"] * u[0] + p["q_inf"] * x_c
    c_to_h = p["lambda"] * u[1]
    generator = np.array(
        [
            [-p["r"], p["r"], 0.0],
            [0.0, -h_out, h_out],
            [detect, c_to_h, -(detect + c_to_h)],
        ]
    )
    flow = [p["w_R"], p["w_H"], p["w_C"] - detect * p["f"]]
    exits = [p["r"], h_out, detect + c_to_h]
    augmented = np.zeros((5, 5))
    augmented[:3, :3] = generator
    augmented[:3, 3] = flow
    augmented[:3, 4] = exits
    integral = _expm(augmented * horizon)
    return float(integral[1, 3]), float(integral[1, 4])
