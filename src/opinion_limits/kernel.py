"""Pairwise interaction probabilities and the networks that modulate them.

An interaction kernel maps an opinion distance d >= 0 to the probability
that two agents at that distance interact once selected. The hard
bounded-confidence step can be smoothed by drawing the confidence radius
from a distribution, which turns the step into 1 - F(d - R) for the
distribution's CDF F.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.special import ndtr

__all__ = [
    "BoundedConfidence",
    "MollifiedBC",
    "Constant",
    "NormalMollifier",
    "UniformMollifier",
    "InteractionKernel",
    "MollifierSpec",
    "Network",
    "eval_kernel",
    "pairwise_matrix",
    "erdos_renyi",
]

_SQRT2 = math.sqrt(2.0)
# bit pattern of +inf; the patterns 0.._INF_BITS order [0, inf] like the floats
_INF_BITS = 0x7FF0000000000000


def _first(pred: Callable[[float], bool]) -> float | None:
    """Smallest float d in [0, inf] with pred(d), or None if pred(inf) fails.

    pred must be false and then true as d grows; bisects on bit patterns,
    so the answer is exact.
    """
    if not pred(math.inf):
        return None
    lo, hi = -1, _INF_BITS  # pred fails below pattern lo + 1 and holds at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(struct.unpack("<d", struct.pack("<q", mid))[0]):
            hi = mid
        else:
            lo = mid
    return struct.unpack("<d", struct.pack("<q", hi))[0]


@dataclass(frozen=True)
class NormalMollifier:
    """Gaussian smoothing of the confidence radius."""

    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError(f"std must be positive, got {self.std}")

    def cdf(self, z):
        return ndtr((np.asarray(z, dtype=float) - self.mean) / self.std)

    def cdf_scalar(self, z: float) -> float:
        return 0.5 * math.erfc(-(z - self.mean) / (self.std * _SQRT2))


@dataclass(frozen=True)
class UniformMollifier:
    """Uniform smoothing on [lo, hi]; exactly 0/1 outside the ramp."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got ({self.lo}, {self.hi})")

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.clip((z - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def cdf_scalar(self, z: float) -> float:
        t = (z - self.lo) / (self.hi - self.lo)
        return 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)


MollifierSpec = Union[NormalMollifier, UniformMollifier]


@dataclass(frozen=True)
class BoundedConfidence:
    """Hard cutoff: interact iff distance <= radius. Discontinuous."""

    radius: float

    discontinuous = True

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be non-negative")

    def eval(self, d):
        d = np.asarray(d, dtype=float)
        return np.where(d <= self.radius, 1.0, 0.0)

    def scalar_fn(self) -> Callable[[float], float]:
        r = self.radius
        return lambda d: 1.0 if d <= r else 0.0

    def saturation(self) -> tuple[float, float]:
        """(d_one, d_zero): the kernel is exactly 1.0 for d <= d_one and
        exactly 0.0 for d >= d_zero, in both scalar_fn and eval."""
        return self.radius, math.nextafter(self.radius, math.inf)


@dataclass(frozen=True)
class MollifiedBC:
    """Bounded confidence smoothed by a random radius: 1 - F(d - R)."""

    radius: float
    mollifier: MollifierSpec = field(default_factory=lambda: NormalMollifier(0.0, 0.01))

    discontinuous = False

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be non-negative")

    def eval(self, d):
        d = np.asarray(d, dtype=float)
        return 1.0 - self.mollifier.cdf(d - self.radius)

    def scalar_fn(self) -> Callable[[float], float]:
        r = self.radius
        cdf = self.mollifier.cdf_scalar
        return lambda d: 1.0 - cdf(d - r)

    @functools.lru_cache(maxsize=64)
    def saturation(self) -> tuple[float, float]:
        """(d_one, d_zero): the kernel is exactly 1.0 for d <= d_one and
        exactly 0.0 for d >= d_zero, in both scalar_fn and eval.

        The two forms differ in the last bits inside the band (math.erfc
        against ndtr), so each end is where both forms saturate, found by
        bisection over floats. d_one is -inf when the kernel is below 1 at
        d = 0, and d_zero is inf when it never reaches 0.
        """
        f = self.scalar_fn()

        def values(d):
            return f(d), float(self.eval(d))

        below_one = _first(lambda d: min(values(d)) < 1.0)
        if below_one is None:
            d_one = math.inf
        else:
            d_one = -math.inf if below_one == 0.0 else math.nextafter(below_one, -math.inf)
        d_zero = _first(lambda d: max(values(d)) == 0.0)
        return d_one, math.inf if d_zero is None else d_zero


@dataclass(frozen=True)
class Constant:
    """Distance-independent interaction probability."""

    value: float

    discontinuous = False

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"constant kernel value must lie in [0, 1], got {self.value}")

    def eval(self, d):
        d = np.asarray(d, dtype=float)
        return np.full_like(d, self.value)

    def scalar_fn(self) -> Callable[[float], float]:
        v = self.value
        return lambda d: v

    def saturation(self) -> tuple[float, float]:
        """(d_one, d_zero): the kernel is exactly 1.0 for d <= d_one and
        exactly 0.0 for d >= d_zero; infinite ends mean never."""
        return (math.inf if self.value == 1.0 else -math.inf), (
            0.0 if self.value == 0.0 else math.inf
        )


InteractionKernel = Union[BoundedConfidence, MollifiedBC, Constant]


def eval_kernel(kernel: InteractionKernel, d):
    """Interaction probability at opinion distance d (scalar or array).

    Rejects negative distances; kernel.eval itself trusts its input.
    """
    if np.any(np.asarray(d) < 0):
        raise ValueError("opinion distance must be non-negative")
    out = kernel.eval(d)
    return float(out) if np.ndim(d) == 0 else out


@dataclass(frozen=True)
class Network:
    """Weighted network with self-loops; used to bias pair selection."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if np.any(a < 0) or np.any(a > 1):
            raise ValueError("adjacency entries must lie in [0, 1]")
        if not np.all(np.diag(a) == 1.0):
            raise ValueError("adjacency must have unit diagonal (self-loops)")
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(f"# n={self.n}\n")
            for row in self.adjacency:
                f.write(",".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "Network":
        with open(path) as f:
            header = f.readline().strip()
            if not header.startswith("# n="):
                raise ValueError(f"bad network CSV header: {header!r}")
            n = int(header[4:])
            rows = [[float(v) for v in line.split(",")] for line in f if line.strip()]
        a = np.array(rows, dtype=float)
        if a.shape != (n, n):
            raise ValueError(f"expected {n}x{n} adjacency, got {a.shape}")
        return cls(a)


def pairwise_matrix(kernel: InteractionKernel, x: np.ndarray) -> np.ndarray:
    """Full N x N matrix of pairwise interaction probabilities.

    Entries outside the kernel's saturation band are set to 1.0 or 0.0
    directly; kernel.eval runs only on the distances inside it.
    """
    x = np.asarray(x, dtype=float)
    d_one, d_zero = kernel.saturation()
    # one N x N buffer holds the distances and then the probabilities
    p = np.subtract.outer(x, x)
    np.abs(p, out=p)
    ones = p <= d_one
    band = np.flatnonzero((p < d_zero) != ones)  # ones implies p < d_zero
    inside = kernel.eval(p.ravel()[band])
    np.copyto(p, ones)
    p.ravel()[band] = inside
    return p


def erdos_renyi(n: int, p_conn: float, seed: int) -> Network:
    """Symmetric Erdos-Renyi graph with the diagonal forced to 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p_conn <= 1.0:
        raise ValueError(f"connection probability must lie in [0, 1], got {p_conn}")
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    edges = rng.random(len(iu[0])) < p_conn
    a[iu] = edges
    a += a.T
    np.fill_diagonal(a, 1.0)
    return Network(a)
