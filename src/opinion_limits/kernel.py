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
from typing import Callable, NamedTuple, Union

import numpy as np

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
    "bounds",
    "erdos_renyi",
]

# bit pattern of +inf; the patterns 0.._INF_BITS order [0, inf] like the floats
_INF_BITS = 0x7FF0000000000000

# The standard normal CDF F. The lower tail q = F(-a), a = |z|, is a
# degree-5 Taylor polynomial about the centre of a's cell of width
# 1/_CDF_CELLS, with coefficients from math.erfc and math.exp. From
# a = _CDF_TAIL on, q is taken as 0: F(-8.5) = 9.5e-18 is below 2^-54, so
# 1 - q rounds to 1.0 there as it does for the exact value. F(z) for z > 0
# is 1 - F(-z), as cephes' ndtr computes it, so the tail is never formed
# as a difference near 1.
_CDF_CELLS = 128  # cells per unit of a
_CDF_TAIL = 8.5
# the array form works through this many elements at a time, so that its
# temporaries stay small; see dem._BAND_CHUNK for what large ones cost
_CDF_CHUNK = 4096


def _cdf_table() -> list[tuple[float, ...]]:
    """Row m: the centre c of cell m, then b_0..b_5 with
    F(-c - s) = sum_k b_k s^k + O(s^6), b_k = (-1)^k He_{k-1}(c) phi(c) / k!."""
    rows = []
    root2 = math.sqrt(2.0)
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    for m in range(int(_CDF_TAIL * _CDF_CELLS)):
        c = (m + 0.5) / _CDF_CELLS
        c2 = c * c
        phi = norm * math.exp(-0.5 * c2)
        rows.append((
            c,
            0.5 * math.erfc(c / root2),
            -phi,
            0.5 * c * phi,
            -(c2 - 1.0) * phi / 6.0,
            c * (c2 - 3.0) * phi / 24.0,
            -((c2 - 6.0) * c2 + 3.0) * phi / 120.0,
        ))
    return rows


_CDF_ROWS = _cdf_table()
# The array form's columns, one contiguous array each (gathers from them
# ran 1.5x as fast as one gather of whole rows), plus a row of zero
# coefficients that a >= _CDF_TAIL, inf and NaN index: q is then 0, or NaN
# from a NaN s.
_CDF_COLS = [np.array(col) for col in zip(*_CDF_ROWS, (_CDF_TAIL + 0.5 / _CDF_CELLS,) + (0.0,) * 6)]


def ndtr(z):
    """The standard normal CDF of a float or an array of floats.

    Both forms do the same IEEE operations in the same order, so a float
    gives the bits its array entry gives. -inf gives 0, inf 1 and NaN NaN;
    no input raises a warning. It lies within 2^-52 of scipy.special.ndtr
    (tested on 2.4e6 points, tails included).
    """
    if isinstance(z, float):
        a = abs(z)
        if a < _CDF_TAIL:
            c, b0, b1, b2, b3, b4, b5 = _CDF_ROWS[int(a * _CDF_CELLS)]
            s = a - c
            q = ((((b5 * s + b4) * s + b3) * s + b2) * s + b1) * s + b0
        elif a >= _CDF_TAIL:
            q = 0.0
        else:
            return z  # NaN
        return 1.0 - q if z > 0.0 else q
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.empty(flat.shape)
    for k in range(0, len(flat), _CDF_CHUNK):
        _ndtr_chunk(flat[k:k + _CDF_CHUNK], out[k:k + _CDF_CHUNK])
    return out.reshape(z.shape)


def _ndtr_chunk(z: np.ndarray, q: np.ndarray) -> None:
    """Writes ndtr of a 1-D array of at most _CDF_CHUNK entries into q."""
    a = np.abs(z)
    m = np.fmin(a, _CDF_TAIL)  # NaN takes the zero row too
    m *= _CDF_CELLS
    i = m.astype(np.intp)
    centre, b0, b1, b2, b3, b4, b5 = _CDF_COLS
    s = np.minimum(a, _CDF_TAIL, out=a)  # finite, or NaN
    s -= centre[i]
    np.multiply(b5[i], s, out=q)
    for b in (b4, b3, b2, b1):
        q += b[i]
        q *= s
    q += b0[i]
    np.subtract(1.0, q, out=q, where=z > 0.0)


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


# Cells of the saturation band in bounds(). With 4096, 0.06-0.09% of the
# in-band acceptance decisions of the benchmark's three ABM workloads fell
# between their cell's bounds and called eval.
_BOUND_CELLS = 4096
# Each bound is widened by this much, which covers the few ulps by which
# rounding can make a kernel rise along the distance axis.
_BOUND_SLACK = 2.0**-50


class Bounds(NamedTuple):
    """Bounds on a kernel inside its saturation band, cell by cell.

    A distance d with d_one < d < d_zero falls in cell
    m = int((d - origin) * scale), and lo[m] <= eval(d) <= hi[m]; each
    cell's bounds hold over its neighbours too, so the rounding of m
    cannot break them. The decision

        u < lo[m] or (u < hi[m] and u < eval(d))

    is therefore u < eval(d) exactly, and calls eval only for a u between
    the bounds. table holds the rows (lo[m], hi[m]) for the array form,
    followed by a row (0, 0) for distances from just past d_zero on, and
    NaN, and a last row (1, 1) for distances at most d_one. A kernel whose
    band holds no float or is unbounded (BoundedConfidence, Constant) has
    the one cell [0, 1] at scale 0 and no table: every decision in its
    band calls eval.
    """

    origin: float
    scale: float
    lo: list[float]
    hi: list[float]
    table: np.ndarray | None


@functools.lru_cache(maxsize=64)
def bounds(kernel: InteractionKernel) -> Bounds:
    """The kernel's Bounds, a companion of saturation(kernel)."""
    d_one, d_zero = saturation(kernel)
    origin = max(d_one, 0.0)
    if not math.nextafter(origin, math.inf) < d_zero < math.inf:
        return Bounds(origin, 0.0, [0.0], [1.0], None)
    cells = _BOUND_CELLS
    scale = cells / (d_zero - origin)
    # the kernel at cell edges -1 .. cells + 2, clamped to the band's start;
    # it is exactly 1.0 or 0.0 beyond the band
    edges = np.maximum(origin + np.arange(-1, cells + 3) / scale, origin)
    p = kernel.eval(edges)
    # cell m spans edges m .. m + 1, and with its neighbours m - 1 .. m + 2
    near = np.stack([p[k:k + cells + 1] for k in range(4)])
    lo = near.min(axis=0) - _BOUND_SLACK
    hi = near.max(axis=0) + _BOUND_SLACK
    table = np.concatenate([np.stack([lo, hi], axis=1), [[0.0, 0.0], [1.0, 1.0]]])
    return Bounds(origin, scale, lo.tolist(), hi.tolist(), table)


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
