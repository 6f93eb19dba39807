"""Pairwise interaction probabilities and the networks that modulate them.

An interaction kernel maps an opinion distance d >= 0 to the probability
that two agents at that distance interact once selected. The hard
bounded-confidence step can be smoothed by drawing the confidence radius
from a distribution, which turns the step into 1 - F(d - R) for the
distribution's CDF F.
"""

from __future__ import annotations

import functools
import io
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
    "pairwise_matrix",
    "saturation",
    "erdos_renyi",
]

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
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0 < self.std < math.inf:
            raise ValueError(f"std must be positive and finite, got {self.std}")

    def cdf(self, z):
        # z - 0.0 is z, and ndtr(+0.0) is ndtr(-0.0): a zero mean skips a pass
        return ndtr((z if self.mean == 0.0 else z - self.mean) / self.std)


@dataclass(frozen=True)
class UniformMollifier:
    """Uniform smoothing on [lo, hi]; exactly 0/1 outside the ramp."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got ({self.lo}, {self.hi})")

    def cdf(self, z):
        t = (z - self.lo) / (self.hi - self.lo)
        if isinstance(t, float):  # np.clip costs microseconds on a float
            return 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
        return np.clip(t, 0.0, 1.0)


MollifierSpec = Union[NormalMollifier, UniformMollifier]


@dataclass(frozen=True)
class BoundedConfidence:
    """Hard cutoff: interact iff distance <= radius. Discontinuous."""

    radius: float

    discontinuous = True

    def __post_init__(self):
        if not self.radius >= 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    def eval(self, d):
        return np.where(d <= self.radius, 1.0, 0.0)


@dataclass(frozen=True)
class MollifiedBC:
    """Bounded confidence smoothed by a random radius: 1 - F(d - R)."""

    radius: float
    mollifier: MollifierSpec = field(default_factory=lambda: NormalMollifier(0.0, 0.01))

    discontinuous = False

    def __post_init__(self):
        if not self.radius >= 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    def eval(self, d):
        return 1.0 - self.mollifier.cdf(d - self.radius)


@dataclass(frozen=True)
class Constant:
    """Distance-independent interaction probability."""

    value: float

    discontinuous = False

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"constant kernel value must lie in [0, 1], got {self.value}")

    def eval(self, d):
        return self.value if isinstance(d, float) else np.full(d.shape, self.value)


InteractionKernel = Union[BoundedConfidence, MollifiedBC, Constant]


@functools.lru_cache(maxsize=64)
def saturation(kernel: InteractionKernel) -> tuple[float, float]:
    """(d_one, d_zero): the kernel is exactly 1.0 for d <= d_one and
    exactly 0.0 for d >= d_zero.

    Each end is found by bisection over floats, for any kernel. d_one is
    -inf when the kernel is below 1 at d = 0 and inf when it never drops
    below 1; d_zero is inf when it never reaches 0.
    """
    below_one = _first(lambda d: kernel.eval(d) < 1.0)
    if below_one is None:
        d_one = math.inf
    else:
        d_one = -math.inf if below_one == 0.0 else math.nextafter(below_one, -math.inf)
    d_zero = _first(lambda d: kernel.eval(d) == 0.0)
    return d_one, math.inf if d_zero is None else d_zero


@dataclass(frozen=True)
class Network:
    """Weighted network with self-loops; used to bias pair selection."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not np.all((a >= 0) & (a <= 1)):  # NaN fails both bounds
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
    def from_csv_bytes(cls, data: bytes) -> "Network":
        """The network of a CSV file that to_csv wrote, from the file's bytes."""
        f = io.TextIOWrapper(io.BytesIO(data))  # decoded as open(path) decodes
        header = f.readline().strip()
        if not header.startswith("# n="):
            raise ValueError(f"bad network CSV header: {header!r}")
        n = int(header[4:])
        rows = [[float(v) for v in line.split(",")] for line in f if line.strip()]
        a = np.array(rows, dtype=float)
        if a.shape != (n, n):
            raise ValueError(f"expected {n}x{n} adjacency, got {a.shape}")
        return cls(a)


@functools.lru_cache(maxsize=4)
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(upper, shift) of N x N matrices: upper marks i <= j, and flat index
    k of entry (i, j) plus shift[k] = (j - i)(n - 1) is that of (j, i)."""
    i = np.arange(n)
    return i[:, None] <= i[None, :], ((i[None, :] - i[:, None]) * (n - 1)).ravel()


def pairwise_matrix(
    kernel: InteractionKernel, x: np.ndarray, diff: np.ndarray | None = None
) -> np.ndarray:
    """Full N x N matrix of pairwise interaction probabilities, or one such
    matrix per state for x of shape (..., N): the result is (..., N, N).

    diff, if given, is the signed difference of every pair of x, either
    x_j - x_i or x_i - x_j at (..., i, j); it is read, not written, and
    spares a subtraction. Entries outside the kernel's saturation band are
    set to 1.0 or 0.0 directly; kernel.eval runs once per unordered pair
    i <= j inside it, and the result is mirrored to (j, i). Every entry is
    computed elementwise, so a stack of states gives the bits each state
    gives alone.
    """
    x = np.asarray(x, dtype=float)
    d_one, d_zero = saturation(kernel)
    # one buffer holds the distances and then the probabilities;
    # |x_i - x_j| and |x_j - x_i| are the same float
    if diff is None:
        p = x[..., :, None] - x[..., None, :]
        np.abs(p, out=p)
    else:
        p = np.abs(diff, order="C")
    n = x.shape[-1]
    upper, shift = _triangle(n)
    ones = p <= d_one
    band = (p < d_zero) != ones  # ones implies p < d_zero
    band &= upper
    k = np.flatnonzero(band)
    flat = p.ravel()
    inside = kernel.eval(flat[k])
    np.copyto(p, ones)
    flat[k] = inside
    flat[k + shift[k % (n * n)]] = inside
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
