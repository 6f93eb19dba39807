import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from opinion_limits import abm
from opinion_limits.abm import ModelSpec, _Draws
from opinion_limits.kernel import (
    _CDF_CELLS,
    _CDF_TAIL,
    BoundedConfidence,
    Constant,
    MollifiedBC,
    Network,
    NormalMollifier,
    UniformMollifier,
    bounds,
    erdos_renyi,
    ndtr,
    pairwise_matrix,
    saturation,
)

MOLLIFIED = MollifiedBC(0.5, NormalMollifier(0.0, 0.01))


def test_bounded_confidence_step():
    k = BoundedConfidence(0.5)
    assert k.eval(0.3) == 1.0
    assert k.eval(0.5) == 1.0
    assert k.eval(0.50001) == 0.0


def test_mollified_at_radius_is_half():
    assert MOLLIFIED.eval(0.5) == pytest.approx(0.5, abs=1e-15)


def test_mollified_one_sigma_above_radius():
    # standard normal CDF oracle at z = 1, frozen from math.erfc
    assert MOLLIFIED.eval(0.51) == pytest.approx(0.15865525393145707, abs=1e-12)


def test_constant_range_validated():
    with pytest.raises(ValueError):
        Constant(1.2)


@given(st.floats(min_value=0.0, max_value=10.0))
def test_kernel_values_are_probabilities(d):
    for k in (MOLLIFIED, BoundedConfidence(0.5), Constant(0.7),
              MollifiedBC(0.5, UniformMollifier(-0.05, 0.05))):
        assert 0.0 <= k.eval(d) <= 1.0


def test_mollified_non_increasing():
    d = np.linspace(0.0, 2.0, 2001)
    vals = MOLLIFIED.eval(d)
    assert np.all(np.diff(vals) <= 1e-15)


def test_uniform_mollifier_compact_support():
    k = MollifiedBC(0.5, UniformMollifier(-0.05, 0.05))
    assert k.eval(0.44) == 1.0
    assert k.eval(0.56) == 0.0
    assert 0.0 < k.eval(0.5) < 1.0


def test_gaussian_mollifier_lipschitz_bound():
    sigma = 0.01
    bound = 1.0 / (sigma * math.sqrt(2 * math.pi))
    d = np.linspace(0.3, 0.7, 5000)
    vals = MOLLIFIED.eval(d)
    slopes = np.abs(np.diff(vals)) / np.diff(d)
    assert slopes.max() <= bound * (1 + 1e-6)


def test_pairwise_probability_at_radius():
    x = np.array([0.1, 0.6])
    assert pairwise_matrix(MOLLIFIED, x)[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_pairwise_probability_self():
    x = np.array([0.3, 0.9])
    assert pairwise_matrix(MOLLIFIED, x)[1, 1] == MOLLIFIED.eval(0.0)


def test_pairwise_probability_symmetric():
    x = np.array([0.1, 0.4, -0.2])
    p = pairwise_matrix(MOLLIFIED, x)
    assert np.allclose(p, p.T)


def test_erdos_renyi_complete():
    net = erdos_renyi(4, 1.0, seed=3)
    assert np.array_equal(net.adjacency, np.ones((4, 4)))
    assert np.array_equal(net.degrees, np.full(4, 4.0))


def test_erdos_renyi_empty():
    net = erdos_renyi(4, 0.0, seed=3)
    assert np.array_equal(net.adjacency, np.eye(4))
    assert np.array_equal(net.degrees, np.ones(4))


def test_erdos_renyi_density():
    n, p = 50, 0.1
    net = erdos_renyi(n, p, seed=7)
    pairs = n * (n - 1) / 2
    density = (net.adjacency.sum() - n) / 2 / pairs
    se = math.sqrt(p * (1 - p) / pairs)
    assert abs(density - p) <= 3 * se


def test_erdos_renyi_reproducible():
    a = erdos_renyi(20, 0.3, seed=11).adjacency
    b = erdos_renyi(20, 0.3, seed=11).adjacency
    assert np.array_equal(a, b)


def test_erdos_renyi_bad_probability():
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5, seed=0)


def test_network_requires_self_loops():
    with pytest.raises(ValueError):
        Network(np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5], ids=["nan", "negative", "above-one"])
def test_network_refuses_entries_outside_unit_interval(bad):
    # NaN fails both a < 0 and a > 1, so the check asks for 0 <= a <= 1
    a = np.eye(3)
    a[0, 1] = a[1, 0] = bad
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        Network(a)


def test_network_csv_roundtrip(tmp_path):
    net = erdos_renyi(8, 0.4, seed=5)
    path = tmp_path / "net.csv"
    net.to_csv(path)
    assert np.array_equal(Network.from_csv_bytes(path.read_bytes()).adjacency, net.adjacency)


_SATURATING = [
    MOLLIFIED,
    MollifiedBC(0.5, NormalMollifier(0.0, 0.05)),
    MollifiedBC(0.2, NormalMollifier(0.01, 0.001)),
    MollifiedBC(0.0, NormalMollifier(0.0, 0.01)),
    MollifiedBC(1.5, NormalMollifier(0.0, 0.3)),
    MollifiedBC(0.5, UniformMollifier(-0.05, 0.05)),
    MollifiedBC(0.3, UniformMollifier(0.0, 0.2)),
    MollifiedBC(0.0, UniformMollifier(-0.1, 0.1)),
    BoundedConfidence(0.5),
    BoundedConfidence(0.0),
    Constant(0.0),
    Constant(0.5),
    Constant(1.0),
]


def _around(edge, lo, hi, count=20_001):
    """Finite distances in [lo, hi]: a dense grid plus the floats next to edge."""
    if hi < lo:
        return np.empty(0)
    pts = [np.linspace(lo, hi, count)]
    if math.isfinite(edge):
        near = [edge]
        for direction in (-math.inf, math.inf):
            v = edge
            for _ in range(64):
                v = math.nextafter(v, direction)
                near.append(v)
        pts.append(np.array(near))
    d = np.concatenate(pts)
    return d[(d >= lo) & (d <= hi)]


def test_float_eval_matches_array_eval():
    # the chain evaluates the kernel on one float per step; the batched
    # engine, the MC checker and pairwise_matrix on arrays. They accept on
    # the same numbers only if both inputs give the same bits.
    far = 4.0
    for kernel in _SATURATING:
        d_one, d_zero = saturation(kernel)
        lo, hi = min(max(d_one, 0.0), far), min(d_zero, far)
        d = np.concatenate([
            np.linspace(lo, hi, 20_001),  # the band, where the kernel is computed
            _around(d_one, 0.0, far, count=2001),
            _around(d_zero, 0.0, far, count=2001),
        ])
        got = np.array([kernel.eval(v) for v in d.tolist()])
        assert got.tobytes() == kernel.eval(d).tobytes(), kernel


@pytest.mark.parametrize("kernel", _SATURATING, ids=repr)
def test_saturation_distances_are_exact_in_both_forms(kernel):
    # pairwise_matrix and the ABM step skip the kernel outside (d_one,
    # d_zero); that is exact only if the kernel, on a float and on an
    # array, is exactly 1.0 up to d_one and exactly 0.0 from d_zero on
    d_one, d_zero = saturation(kernel)
    assert d_one < d_zero or d_one == d_zero == math.inf
    far = 4.0
    ones = _around(d_one, 0.0, min(d_one, far))
    zeros = _around(d_zero, max(d_zero, 0.0), far)
    for d, want in ((ones, 1.0), (zeros, 0.0)):
        assert np.all(kernel.eval(d) == want)
        assert all(kernel.eval(v) == want for v in d.tolist())
    if math.isfinite(d_one) and d_one >= 0.0:
        # d_one is the last distance at which the kernel is 1.0
        above = math.nextafter(d_one, math.inf)
        assert kernel.eval(above) < 1.0
        assert kernel.eval(np.array([above]))[0] < 1.0
    if 0.0 < d_zero < math.inf:
        below = math.nextafter(d_zero, -math.inf)
        assert kernel.eval(below) > 0.0
        assert kernel.eval(np.array([below]))[0] > 0.0


def test_default_kernel_saturation_band():
    assert saturation(MOLLIFIED) == (0.417076389241864, 0.582923610758136)
    # the bands the step and constant kernels once stated by hand
    assert saturation(BoundedConfidence(0.5)) == (0.5, math.nextafter(0.5, math.inf))
    assert saturation(Constant(0.0)) == (-math.inf, 0.0)
    assert saturation(Constant(1.0)) == (math.inf, math.inf)


@pytest.mark.parametrize("kernel", _SATURATING, ids=repr)
def test_pairwise_matrix_equals_kernel_eval(kernel):
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 60), [0.0, -0.0, 0.25, 0.25]])
    d = np.abs(x[:, None] - x[None, :])
    assert np.array_equal(pairwise_matrix(kernel, x), kernel.eval(d))


@pytest.mark.parametrize("kernel", _SATURATING, ids=repr)
def test_pairwise_matrix_of_a_stack_equals_each_state(kernel):
    # a batch of Euler-Maruyama states gets one matrix per state, bit for bit
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1.0, 1.0, (2, 3, 40))
    xs[0, 1, :4] = [0.0, -0.0, 0.25, 0.25]
    p = pairwise_matrix(kernel, xs)
    assert p.shape == (2, 3, 40, 40)
    for k in np.ndindex(2, 3):
        assert p[k].tobytes() == pairwise_matrix(kernel, xs[k]).tobytes()


class _Counting:
    """A kernel that records the number of distances each eval receives."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.discontinuous = kernel.discontinuous
        self.sizes = []

    def eval(self, d):
        self.sizes.append(np.size(d))
        return self.kernel.eval(d)


def _symmetric_cases():
    """States (..., N) for N = 1, 2 and 40: uniform, and tied with zeros of
    both signs; 1-D, (B, N) and (2, 3, N)."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 40):
        for shape in ((n,), (4, n), (2, 3, n)):
            yield rng.uniform(-1.0, 1.0, shape)
            yield np.resize([0.25, -0.0, 0.25, 0.0, 0.75], shape)
            yield np.zeros(shape)


@pytest.mark.parametrize(
    "kernel",
    [
        MOLLIFIED,
        MollifiedBC(0.5, UniformMollifier(-0.05, 0.05)),
        # d_one = -inf: the diagonal is in the band
        Constant(0.5),
        MollifiedBC(0.5, NormalMollifier(0.0, 0.5)),
    ],
    ids=repr,
)
def test_pairwise_matrix_evaluates_each_unordered_pair_once(kernel):
    counting = _Counting(kernel)
    saturation(counting)  # its bisection calls eval too
    for x in _symmetric_cases():
        counting.sizes.clear()
        p = pairwise_matrix(counting, x)
        n = x.shape[-1]
        assert sum(counting.sizes) <= x.size // n * n * (n + 1) // 2
        assert p.tobytes() == kernel.eval(np.abs(x[..., :, None] - x[..., None, :])).tobytes()
        diff = x[..., None, :] - x[..., :, None]
        passed = diff.copy()
        assert pairwise_matrix(kernel, x, diff=passed).tobytes() == p.tobytes()
        assert passed.tobytes() == diff.tobytes()  # read, not written
        assert pairwise_matrix(kernel, x, diff=-diff).tobytes() == p.tobytes()


@pytest.mark.parametrize("mean", [0.0, -0.0, 0.02, -0.3])
def test_normal_mollifier_cdf_equals_explicit_form(mean):
    # a zero mean skips the subtraction; the bits must not move
    m = NormalMollifier(mean, 0.05)
    z = np.concatenate([
        np.linspace(-1.0, 1.0, 4001),
        [0.0, -0.0, mean, -mean, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf],
    ])
    want = ndtr((z - mean) / 0.05)  # the vendored CDF, through its array form
    assert m.cdf(z).tobytes() == want.tobytes()
    got = np.array([m.cdf(v) for v in z.tolist()])
    assert got.tobytes() == want.tobytes()


# --- the vendored normal CDF --------------------------------------------------


def _nudged(v, ulps):
    """v and the floats up to ulps steps either side of each entry."""
    out = [v]
    for direction in (-np.inf, np.inf):
        w = v
        for _ in range(ulps):
            w = np.nextafter(w, direction)
            out.append(w)
    return np.concatenate(out)


def _cdf_points():
    """At least 10^6 arguments of the CDF: every cell boundary of its table
    +-1 ulp, zeros, infinities, NaN, subnormals, the tail cut +-1 ulp, and
    random values across the table, the tails and every magnitude."""
    rng = np.random.default_rng(7)
    edges = np.arange(int(_CDF_TAIL * _CDF_CELLS) + 1) / _CDF_CELLS
    special = np.array([
        0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, -1.1e-308,
        _CDF_TAIL, -_CDF_TAIL, 1e300, -1e300, 1.7976931348623157e308,
    ])
    z = np.concatenate([
        _nudged(np.concatenate([edges, -edges]), 1),
        _nudged(np.array([_CDF_TAIL, -_CDF_TAIL]), 1),
        special,
        rng.uniform(-9.0, 9.0, 600_000),
        rng.normal(0.0, 3.0, 200_000),
        rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-320.0, 308.0, 200_000),
    ])
    assert len(z) >= 1_000_000
    return z


def test_ndtr_float_and_array_forms_agree_bit_for_bit():
    # the chain evaluates the CDF on one float, the engines on arrays; both
    # must accept on the same numbers
    z = _cdf_points()
    got = ndtr(z)
    assert np.array([ndtr(v) for v in z.tolist()]).tobytes() == got.tobytes()
    # a 2-D call is chunked over the flattened array and keeps its shape
    square = z[:1000 * 1000].reshape(1000, 1000)
    assert ndtr(square).tobytes() == got[:1000 * 1000].tobytes()
    assert ndtr(square.T).tobytes() == got[:1000 * 1000].reshape(1000, 1000).T.tobytes()


def test_ndtr_is_within_2_to_the_minus_52_of_scipy():
    z = np.concatenate([_cdf_points(), np.linspace(-10.0, 10.0, 1_400_001)])
    got, want = ndtr(z), scipy.special.ndtr(z)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.max(np.abs(got[~nan] - want[~nan])) <= 2.0**-52


def test_ndtr_special_values_raise_no_warning():
    z = [-math.inf, math.inf, -1e308, 1e308, -_CDF_TAIL, _CDF_TAIL, -0.0, 0.0]
    want = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ndtr(np.array(z + [math.nan]))
        scalar = [ndtr(v) for v in z + [math.nan]]
    assert got[:6].tolist() == scalar[:6] == want
    assert got[6] == got[7] == scalar[6] == scalar[7] == pytest.approx(0.5, abs=2.0**-52)
    assert math.isnan(got[8]) and math.isnan(scalar[8])


# --- the bounds of each kernel's band -----------------------------------------


def _uniforms(u):
    """u moved into [0, 1), where the engines' acceptance uniforms lie."""
    return np.clip(u, 0.0, np.nextafter(1.0, 0.0))


def _cell(b, d):
    """The cell the scalar loop reads for in-band distances d: the same IEEE
    operations as int((d - origin) * scale) on each float."""
    return ((d - b.origin) * b.scale).astype(np.intp)


def _edges(kernel, ulps):
    """Every cell edge of the kernel's bounds, with the floats up to ulps
    steps either side; empty for a kernel without cells."""
    b = bounds(kernel)
    if b.table is None:
        return np.empty(0)
    k = np.arange(len(b.lo) + 1)
    return np.abs(_nudged(b.origin + k / b.scale, ulps))


def _distances(kernel, rng, count):
    """count distances across the band and beyond it on both sides."""
    d_one, d_zero = saturation(kernel)
    start = min(max(d_one, 0.0), 4.0)
    stop = min(d_zero, start + 4.0)
    beyond = stop + 0.25 * (stop - start)
    return np.concatenate([
        rng.uniform(start, stop, count // 2), rng.uniform(0.0, beyond, count - count // 2)
    ])


@pytest.mark.parametrize("kernel", _SATURATING, ids=repr)
def test_bounds_hold_for_every_distance_in_their_cell(kernel):
    d_one, d_zero = saturation(kernel)
    b = bounds(kernel)
    d = np.concatenate([_distances(kernel, np.random.default_rng(8), 1_000_000),
                        _edges(kernel, 2)])
    d = d[(d > d_one) & (d < d_zero)]
    m = _cell(b, d)
    p = kernel.eval(d)
    assert np.all(np.array(b.lo)[m] <= p)
    assert np.all(p <= np.array(b.hi)[m])


@pytest.mark.parametrize("kernel", _SATURATING, ids=repr)
def test_bounded_decision_equals_the_kernel_decision(kernel):
    # u < lo or (u < hi and u < eval(d)) is u < eval(d) exactly, so the
    # engines accept as the Monte Carlo check, which compares with p itself
    accept = abm._accept(kernel)
    rng = np.random.default_rng(9)
    d = _distances(kernel, rng, 1_000_000)
    p = kernel.eval(d)
    u = rng.random(len(d))
    # a third of the uniforms within 2 ulps of the kernel, between the bounds
    near = rng.random(len(d)) < 1 / 3
    u[near] = np.nextafter(p[near], rng.choice([-np.inf, np.inf], near.sum()))
    u[near] = np.where(rng.random(near.sum()) < 0.5, np.nextafter(u[near], np.inf), u[near])
    u = _uniforms(u)
    assert np.array_equal(accept(u, d), u < p)
    assert np.array_equal(accept(u, -d), u < p)  # the sign of d is ignored


@pytest.mark.parametrize(
    "kernel", [k for k in _SATURATING if bounds(k).table is not None], ids=repr
)
def test_bounded_decision_at_cell_edges_with_u_at_the_bounds(kernel):
    d_one, d_zero = saturation(kernel)
    b = bounds(kernel)
    d = _edges(kernel, 2)
    d = d[(d > d_one) & (d < d_zero)]
    m = _cell(b, d)
    at = np.concatenate([np.array(b.lo)[m], np.array(b.hi)[m]])
    u = _uniforms(_nudged(at, 1))
    d = np.tile(d, len(u) // len(d))
    assert np.array_equal(abm._accept(kernel)(u, d), u < kernel.eval(d))


@pytest.mark.parametrize("kernel", _SATURATING, ids=repr)
def test_nan_distance_is_rejected_by_both_engines(kernel):
    assert not abm._accept(kernel)(np.zeros(3), np.full(3, math.nan)).any()
    spec = ModelSpec(n_agents=2, h=0.01, horizon=1.0, kernel=kernel)
    # the scalar loop: agent 0 meets agent 1 at a NaN opinion, with u = 0
    step = _Draws(np.array([0]), np.array([1]), None, None, None, np.zeros(1), None, None)
    x = [0.0, math.nan]
    abm._apply(spec, x, step, [(slice(0, 0), 0, 1)], np.empty((0, 2)), 0.0, 0.0, False)
    assert x[0] == 0.0
    # the batched engine: 100 steps of two runs from the same state
    _, plan = abm._plan(spec, [0.0, 1.0])
    out = np.empty((2, 2, 2))
    rngs = [np.random.default_rng([10, r]) for r in range(2)]
    abm._run_group(spec, np.array([0.0, math.nan]), plan, rngs, out)
    assert np.all(out[:, :, 0] == 0.0)
