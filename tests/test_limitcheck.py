import math
import tracemalloc

import numpy as np
import pytest

from opinion_limits.abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithoutReplacement,
    UniformWithReplacement,
    _draw,
)
from opinion_limits.dem import build_limit
from opinion_limits.kernel import Constant, MollifiedBC, Network, NormalMollifier, pairwise_matrix
from opinion_limits.limitcheck import (
    _increments,
    _report,
    convergence_sweep,
    exact_coefficients,
    mc_coefficients,
    probe_states,
    sweep_summary,
    write_sweep_csv,
)
from opinion_limits.noise import GaussianScaled, NoiseFamily, NoiseKind

KERNEL = MollifiedBC(0.5, NormalMollifier(0.0, 0.01))
BOTH = UniformWithReplacement(both_update=True)


def make_spec(**kw):
    defaults = dict(n_agents=5, h=1e-3, horizon=1.0, kernel=KERNEL)
    defaults.update(kw)
    return ModelSpec(**defaults)


def test_exact_drift_hand_value_two_agents():
    # N=2, constant kernel: b_1 = (1/2)(x_2 - x_1)
    spec = make_spec(n_agents=2, kernel=Constant(1.0))
    x = np.array([0.0, 1.0])
    rep = exact_coefficients(x, spec)
    assert rep.b_h == pytest.approx([0.5, -0.5])
    assert build_limit(spec).drift(x) == pytest.approx([0.5, -0.5])
    # a_ii = h * sum_j p_ij d_ij^2 = h * 1
    assert rep.a_h_diag == pytest.approx([1e-3, 1e-3])


def test_exact_drift_matches_limit_everywhere():
    spec = make_spec(n_agents=10)
    rng = np.random.default_rng(0)
    model = build_limit(spec)
    for _ in range(10):
        x = rng.uniform(-1, 1, 10)
        rep = exact_coefficients(x, spec)
        assert rep.b_h == pytest.approx(model.drift(x), abs=1e-14)


def test_exact_second_moment_linear_in_h():
    x = np.random.default_rng(1).uniform(-1, 1, 5)
    ratios = []
    for h in (1e-2, 1e-3, 1e-4):
        rep = exact_coefficients(x, make_spec(h=h))
        ratios.append(rep.a_h_diag / h)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
    assert ratios[1] == pytest.approx(ratios[2], rel=1e-12)


def test_exact_requires_noise_free():
    noise = NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05))
    with pytest.raises(ValueError, match="noise-free"):
        exact_coefficients(np.zeros(5), make_spec(noise=noise))


def test_both_update_offdiagonal_negative_covariance():
    spec = make_spec(n_agents=3, kernel=Constant(1.0), selection=BOTH)
    rep = exact_coefficients(np.array([0.0, 0.5, 1.0]), spec)
    assert rep.a_h_offdiag_max > 0.0


def test_both_update_offdiagonal_hand_value():
    # one step moves both agents of the ordered pair (i, j), with probability
    # p_ij / N^2; the pairs (0, 2) and (2, 0) each move agents 0 and 2 by
    # +-mu * 1, so a_h_02 = -(mu^2 / h) * (2 / N^2) * 1^2
    spec = make_spec(n_agents=3, kernel=Constant(1.0), selection=BOTH)
    rep = exact_coefficients(np.array([0.0, 0.5, 1.0]), spec)
    assert rep.a_h_offdiag_max == pytest.approx(spec.mu**2 / spec.h * 2.0 / 9.0, rel=1e-15)


def _closed_form_coefficients(x, spec):
    """The one-step moments written out scheme by scheme: the reference the
    enumeration through _increments must reproduce."""
    n, h, mu = spec.n_agents, spec.h, spec.mu
    p = pairwise_matrix(spec.kernel, x)
    sel = spec.selection
    both = isinstance(sel, UniformWithReplacement) and sel.both_update
    if both:  # the unordered pair {i, j} is selected either way round
        w = 2.0 * p / n**2
    elif isinstance(sel, UniformWithoutReplacement):
        w = p / (n * (n - 1))
        np.fill_diagonal(w, 0.0)
    elif isinstance(sel, DegreeWeighted):
        w = sel.network.adjacency * p / (n * sel.network.degrees[:, None])
    elif isinstance(sel, ProbabilityProportional):
        power = 2 if sel.double_weighting else 1
        w = p**power / (n * p.sum(axis=1)[:, None])
    else:
        w = p / n**2
    d = x[None, :] - x[:, None]
    off = -(mu**2 / h) * (w * d**2) if both else np.zeros((n, n))
    np.fill_diagonal(off, 0.0)
    return {
        "b_h": (mu / h) * (w * d).sum(axis=1),
        "a_h_diag": (mu**2 / h) * (w * d**2).sum(axis=1),
        "a_h_offdiag_max": np.abs(off).max(),
        "gamma4": (mu**4 / h) * (w * d**4).sum(),
    }


def _weighted_network(n, rng):
    a = np.triu(rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5), 1)
    a = a + a.T
    np.fill_diagonal(a, 1.0)
    return Network(a)


_ENUMERATED = {
    "uniform": lambda n, rng: UniformWithReplacement(),
    "without_replacement": lambda n, rng: UniformWithoutReplacement(),
    "both_update": lambda n, rng: BOTH,
    "degree": lambda n, rng: DegreeWeighted(_weighted_network(n, rng)),
    "proportional": lambda n, rng: ProbabilityProportional(),
    "proportional_double": lambda n, rng: ProbabilityProportional(double_weighting=True),
}


# n = 150 rows are longer than numpy's 128-element pairwise-summation block
@pytest.mark.parametrize("n", [5, 50, 150])
@pytest.mark.parametrize("scheme", sorted(_ENUMERATED))
def test_exact_enumeration_matches_closed_forms(scheme, n):
    # the enumeration sums step by step, the closed forms row by row, so
    # they agree to rounding: the worst deviation over this grid was
    # 1.5e-15 of the largest entry (both-update, n = 150, tied state, a_h_diag)
    rng = np.random.default_rng([17, n, sorted(_ENUMERATED).index(scheme)])
    spec = make_spec(n_agents=n, selection=_ENUMERATED[scheme](n, rng))
    half = n // 2
    states = {
        "random": rng.uniform(-1.0, 1.0, n),
        "two_cluster": np.concatenate(
            [-0.5 + 0.02 * rng.uniform(-1, 1, half), 0.5 + 0.02 * rng.uniform(-1, 1, n - half)]
        ),
        "tied": np.round(rng.uniform(-1.0, 1.0, n), 1),
    }
    for name, x in states.items():
        rep = exact_coefficients(x, spec)
        for field, want in _closed_form_coefficients(x, spec).items():
            got = np.asarray(getattr(rep, field))
            scale = float(np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-14 * scale, (name, field)


# Each estimate is a mean of 200,000 independent steps from a seed fixed
# before the first run; under the normal approximation a 4-standard-error
# check fails by chance with probability 6.3e-5. The three tests below make
# 23 such checks (b_h and a_h_diag per agent, gamma4 once per test), so at
# most 1.5e-3 for any of them, 1.9e-4 for the three on gamma4.
def test_mc_matches_exact_standard():
    spec = make_spec()
    x = np.random.default_rng(2).uniform(-1, 1, 5)
    exact = exact_coefficients(x, spec)
    mc = mc_coefficients(x, spec, 200_000, np.random.default_rng(3))
    assert np.all(np.abs(mc.b_h - exact.b_h) <= 4 * mc.b_h_se + 1e-12)
    assert np.all(np.abs(mc.a_h_diag - exact.a_h_diag) <= 4 * mc.a_h_diag_se + 1e-12)
    assert abs(mc.gamma4 - exact.gamma4) <= 4 * mc.gamma4_se


def test_mc_matches_exact_without_replacement():
    spec = make_spec(selection=UniformWithoutReplacement())
    x = np.random.default_rng(4).uniform(-1, 1, 5)
    exact = exact_coefficients(x, spec)
    mc = mc_coefficients(x, spec, 200_000, np.random.default_rng(5))
    assert np.all(np.abs(mc.b_h - exact.b_h) <= 4 * mc.b_h_se + 1e-12)
    assert abs(mc.gamma4 - exact.gamma4) <= 4 * mc.gamma4_se


def test_mc_matches_exact_probability_proportional():
    spec = make_spec(selection=ProbabilityProportional())
    x = np.random.default_rng(6).uniform(-1, 1, 5)
    exact = exact_coefficients(x, spec)
    mc = mc_coefficients(x, spec, 200_000, np.random.default_rng(7))
    assert np.all(np.abs(mc.b_h - exact.b_h) <= 4 * mc.b_h_se + 1e-12)
    assert abs(mc.gamma4 - exact.gamma4) <= 4 * mc.gamma4_se


def _fsum_mc_outputs(batches, n, h, samples):
    """_report's Monte Carlo gamma4, a_h_diag_se, gamma4_se and
    a_h_offdiag_max, each sum a math.fsum over Python powers d**4, d**8."""
    sq = [[] for _ in range(n)]  # per agent, d**2 of each step that moves it
    fourth = [[] for _ in range(n)]  # and d**4
    g, g2 = [], []  # the terms of the steps' summed fourth powers and their squares
    off = {}
    for ii, di, jj, dj in batches:
        movers = [(ii, di)] if dj is None else [(ii, di), (jj, dj)]
        for step in zip(*(zip(a.tolist(), d.tolist()) for a, d in movers)):
            for i, d in step:
                sq[i].append(d**2)
                fourth[i].append(d**4)
                g.append(d**4)
                g2.append(d**8)
            if len(step) == 2:  # (d**4 + e**4)**2 = d**8 + 2 d**4 e**4 + e**8
                (i, d), (j, e) = step
                g2.append(2.0 * d**4 * e**4)
                if i != j:
                    off.setdefault(frozenset((i, j)), []).append(d * e)

    def se(s, q):
        mean = math.fsum(s) / samples
        return math.sqrt(max(math.fsum(q) / samples - mean**2, 0.0) / samples) / h

    return {
        "gamma4": math.fsum(g) / samples / h,
        "a_h_diag_se": np.array([se(sq[i], fourth[i]) for i in range(n)]),
        "gamma4_se": se(g, g2),
        "a_h_offdiag_max": max(
            (abs(math.fsum(v)) / (samples * h) for v in off.values()), default=0.0
        ),
    }


_MC_CASES = {
    "single-adaptation": (UniformWithReplacement(), NoiseKind.ADAPTATION),
    "single-external": (UniformWithReplacement(), NoiseKind.EXTERNAL),
    "both-external": (BOTH, NoiseKind.EXTERNAL),
}


@pytest.mark.parametrize("case", sorted(_MC_CASES))
def test_mc_report_matches_fsum_reference(case):
    # _report sums in float64 with np.add.at and forms d**4 as (d*d)*(d*d).
    # 1e-12 (4500 eps) is far above the rounding of ~10^4 same-signed terms
    # per agent (about sqrt(n) eps) and far below one step's share (~1e-4).
    # The worst deviation over these cases was 3.4e-15 relative
    # (both-update, a_h_diag_se), with pow or with products.
    selection, kind = _MC_CASES[case]
    noise = NoiseFamily(kind, GaussianScaled(0.0, 0.05))
    spec = make_spec(selection=selection, noise=noise)
    rng = np.random.default_rng([19, sorted(_MC_CASES).index(case)])
    x = rng.uniform(-1, 1, spec.n_agents)
    p = pairwise_matrix(spec.kernel, x)
    batches = [_increments(x, spec, _draw(spec, m, rng), p) for m in (20_000, 20_000, 7_000)]
    samples = 47_000
    rep = _report(x, spec, batches, "monte_carlo", samples)
    want = _fsum_mc_outputs(batches, spec.n_agents, spec.h, samples)
    for field, ref in want.items():
        got = getattr(rep, field)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (field, got, ref)
    assert (rep.a_h_offdiag_max > 0.0) == selection.both_update


def test_mc_working_set_does_not_grow_with_samples():
    # tracemalloc sees numpy's buffers. In batches of 4096 steps the peak is
    # about 0.5 MB at N = 50 whatever the sample count; batches of 8192 peak
    # at 0.9 MB at 10^6 samples, and engine 7's 200 000-step batches at 21 MB.
    noise = NoiseFamily(NoiseKind.ADAPTATION, GaussianScaled(0.0, 0.05))
    spec = make_spec(n_agents=50, noise=noise)
    x = np.random.default_rng(20).uniform(-1, 1, 50)
    for samples in (10_000, 1_000_000):
        tracemalloc.start()
        try:
            mc_coefficients(x, spec, samples, np.random.default_rng(21))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 640_000, (samples, peak)


def test_mc_proportional_refuses_an_agent_with_nobody_to_pick():
    spec = make_spec(kernel=Constant(0.0), selection=ProbabilityProportional())
    with pytest.raises(RuntimeError, match="zero total interaction probability"):
        mc_coefficients(np.zeros(5), spec, 10_000, np.random.default_rng(0))


def test_mc_minimum_samples():
    with pytest.raises(ValueError, match="samples"):
        mc_coefficients(np.zeros(5), make_spec(), 100, np.random.default_rng(0))


def test_sweep_noise_free_decreasing_second_moment():
    x = np.random.default_rng(8).uniform(-1, 1, 5)
    rows = convergence_sweep(x, make_spec(), [1e-2, 1e-3, 1e-4], 10_000, np.random.default_rng(9))
    assert [r.h for r in rows] == [1e-2, 1e-3, 1e-4]
    assert rows[0].a_deviation > rows[1].a_deviation > rows[2].a_deviation
    assert rows[0].gamma4 > rows[2].gamma4
    assert all(r.b_deviation < 1e-12 for r in rows)


def test_sweep_requires_decreasing_h():
    with pytest.raises(ValueError, match="decreasing"):
        convergence_sweep(
            np.zeros(5), make_spec(), [1e-4, 1e-3], 10_000, np.random.default_rng(0)
        )


def test_probe_states_structure():
    states = probe_states(6, 3, np.random.default_rng(10))
    assert len(states) == 5
    assert np.all(states[3] == 0.2)  # consensus probe
    clustered = states[4]
    assert np.all(np.abs(np.abs(clustered) - 0.5) <= 0.02)


def test_write_sweep_csv_roundtrip(tmp_path):
    x = np.random.default_rng(11).uniform(-1, 1, 5)
    rows = convergence_sweep(x, make_spec(), [1e-2, 1e-3], 10_000, np.random.default_rng(12))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data["h"].tolist() == [1e-2, 1e-3]
    assert data["a_deviation"].tolist() == [r.a_deviation for r in rows]


def test_sweep_summary_verdicts():
    x = np.random.default_rng(13).uniform(-1, 1, 5)
    rows = convergence_sweep(
        x, make_spec(), [1e-2, 1e-3, 1e-4], 10_000, np.random.default_rng(14)
    )
    text = sweep_summary(rows, b_tol=1e-9)
    assert text.count("PASS") == 3
    assert "FAIL" not in text
    tight = sweep_summary(rows, b_tol=1e-30)
    assert "FAIL" in tight
