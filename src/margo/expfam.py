"""Exponential family densities, binomial membership checks, multiinformation.

This is the one floating-point corner of the package: densities are numeric
illustrations of the exact results elsewhere, and every check here is
tolerance-tagged.  Entropies use the natural logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, log
from typing import Sequence

from .characters import Move
from .complexes import SimplicialComplex
from .spaces import Config, ConfigSpace, layout


@dataclass(frozen=True)
class Density:
    """A probability vector over the configurations of a space."""

    space: ConfigSpace
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", tuple(float(p) for p in self.probabilities))
        if len(self.probabilities) != self.space.size:
            raise ValueError(f"expected {self.space.size} entries, got {len(self.probabilities)}")
        if not all(map(isfinite, self.probabilities)):
            raise ValueError("probabilities must be finite")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(self.probabilities) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")

    @property
    def support(self) -> tuple[Config, ...]:
        return tuple(x for x, p in zip(self.space.configs(), self.probabilities) if p > 0)


def uniform_density(space: ConfigSpace) -> Density:
    return Density(space, (1.0 / space.size,) * space.size)


def point_mixture(space: ConfigSpace, points: Sequence[Sequence[int]]) -> Density:
    """The uniform mixture of point masses at the given configurations."""
    probs = [0.0] * space.size
    for x in points:
        probs[space.index(tuple(x))] += 1.0 / len(points)
    return Density(space, tuple(probs))


def density(cx: SimplicialComplex, space: ConfigSpace,
            theta: Sequence[float]) -> Density:
    """The exponential family member with natural parameter theta.

    Probabilities are proportional to exp of theta paired with the marginal
    matrix column of each configuration; the partition function is applied
    with log-sum-exp stabilization.
    """
    lay = layout(cx, space)
    if len(theta) != lay.nrows:
        raise ValueError(f"theta length {len(theta)} != {lay.nrows} matrix rows")
    if not all(map(isfinite, theta)):
        raise ValueError("theta must be finite")
    scores = [sum(theta[r] for r in lay.rows_of[ix]) for ix in range(space.size)]
    peak = max(scores)
    weights = [exp(s - peak) for s in scores]
    total = sum(weights)
    return Density(space, tuple(w / total for w in weights))


def satisfies_binomials(p: Density, moves: Sequence[Move], tol: float) -> bool:
    """Whether p satisfies the binomial equation of every move, within tol.

    Each move m demands prod p(x)^(m+(x)) = prod p(x)^(m-(x)), with the
    convention 0^0 = 1.  The tolerance must be finite and nonnegative.
    """
    if not (isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and nonnegative")
    for m in moves:
        if m.space != p.space:
            raise ValueError("move space does not match the density's space")
        lhs = 1.0
        rhs = 1.0
        for prob, v in zip(p.probabilities, m.vector):
            if v > 0:
                lhs *= prob ** v
            elif v < 0:
                rhs *= prob ** (-v)
        if abs(lhs - rhs) > tol:
            return False
    return True


def _entropy(weights: Sequence[float]) -> float:
    return -sum(w * log(w) for w in weights if w > 0)


def multiinformation(p: Density) -> float:
    """Sum of the single-variable entropies minus the joint entropy."""
    joint = _entropy(p.probabilities)
    margs = [[0.0] * q for q in p.space.cardinalities]
    for x, prob in zip(p.space.configs(), p.probabilities):
        for marg, v in zip(margs, x):
            marg[v] += prob
    return sum(map(_entropy, margs)) - joint
