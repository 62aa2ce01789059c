import platform
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shumfit import (
    Kernel,
    MarkerDataset,
    SmoothingSpec,
    default_lambda,
    ehum_fast,
    kernel_deriv,
    kernel_eval,
    lambda_rule_check,
    project_scores,
    shum_value,
    smooth,
)
from shumfit.errors import NonPositiveLambda
from shumfit.simulate import ScenarioConfig, generate_scenario
from shumfit.smooth import (
    _HIGH,
    SATURATION,
    shum_from_scores,
    shum_gradient,
    shum_gradient_full,
)

from oracles import (
    central_difference,
    dense_shum,
    dense_shum_gradient,
    dot_scores,
    make_dataset,
    pair_rule_fraction,
    random_scores,
    shum_tuple_loop,
)


def test_kernel_point_values():
    assert kernel_eval(Kernel.SIGMOID, 0.0, 0.1) == 0.5
    assert kernel_eval(Kernel.NORMAL, 0.0, 0.1) == 0.5
    assert kernel_eval(Kernel.SIGMOID, 1.0, 0.1) == pytest.approx(0.9999546, abs=5e-8)
    assert kernel_eval(Kernel.SIGMOID, 1.0, 1.0) == pytest.approx(
        1 / (1 + np.exp(-1.0))
    )
    assert kernel_eval(Kernel.NORMAL, 0.1, 0.1) == pytest.approx(0.8413447, abs=1e-6)


@given(st.floats(-50, 50), st.sampled_from(list(Kernel)))
@settings(max_examples=100)
def test_kernel_symmetry_and_open_interval(x, kernel):
    lo, hi = kernel_eval(kernel, x, 0.37), kernel_eval(kernel, -x, 0.37)
    assert lo + hi == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < lo < 1.0


def test_kernel_never_saturates_even_far_out():
    for kernel in Kernel:
        assert 0.0 < kernel_eval(kernel, -1e4, 0.01)
        assert kernel_eval(kernel, 1e4, 0.01) < 1.0


@given(
    st.floats(-3, 3),
    st.floats(0.05, 2.0),
    st.sampled_from(list(Kernel)),
)
@settings(max_examples=80)
def test_kernel_deriv_matches_finite_differences(x, lam, kernel):
    fd = central_difference(lambda t: kernel_eval(kernel, t[0], lam), [x])[0]
    assert kernel_deriv(kernel, x, lam) == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_smoothing_spec_rejects_bad_lambda():
    with pytest.raises(NonPositiveLambda):
        SmoothingSpec(Kernel.SIGMOID, 0.0)
    with pytest.raises(NonPositiveLambda):
        SmoothingSpec(Kernel.NORMAL, -1.0)


def test_default_lambda_values():
    assert default_lambda(100) == pytest.approx(0.1)
    assert default_lambda(400) == pytest.approx(0.05)


def test_single_tuple_chain_value():
    # one observation per category: value is the product of pair kernels
    spec = SmoothingSpec(Kernel.SIGMOID, 1.0)
    scores = [np.array([0.0]), np.array([10.0]), np.array([20.0])]
    s10 = kernel_eval(Kernel.SIGMOID, 10.0, 1.0)
    assert shum_from_scores(scores, spec) == pytest.approx(s10 * s10, rel=1e-12)


def test_shum_matches_tuple_loop_oracle():
    rng = np.random.default_rng(5)
    for kernel in Kernel:
        for lam in (1.0, 0.1):
            spec = SmoothingSpec(kernel, lam)
            g = lambda x: kernel_eval(kernel, x, lam)  # noqa: B023
            for _ in range(20):
                scores = random_scores(rng, allow_ties=True)
                assert shum_from_scores(scores, spec) == pytest.approx(
                    shum_tuple_loop(scores, g), rel=1e-12, abs=1e-14
                )


def test_shum_approaches_ehum_as_lambda_shrinks():
    rng = np.random.default_rng(9)
    data = make_dataset(rng, m=3, sizes=(12, 11, 13), d=2, spread=2.0)
    beta = np.array([1.0, 0.7])
    target = ehum_fast([x @ beta for x in data.categories]).value
    gaps = [
        abs(shum_value(data, beta, SmoothingSpec(Kernel.SIGMOID, lam)) - target)
        for lam in (0.5, 0.05, 0.005)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


@given(st.integers(0, 10**6), st.sampled_from(list(Kernel)))
@settings(max_examples=40, deadline=None)
def test_gradient_matches_finite_differences(seed, kernel):
    rng = np.random.default_rng(seed)
    data = make_dataset(rng, m=3, sizes=(5, 4, 6), d=3, spread=1.0)
    spec = SmoothingSpec(kernel, 0.5)
    beta = rng.normal(size=3)
    fd = central_difference(lambda b: shum_value(data, b, spec), beta)
    _, grad = shum_gradient_full(data, beta, spec)
    np.testing.assert_allclose(grad, fd, rtol=5e-5, atol=1e-8)


def test_gradient_four_categories_and_anchoring():
    rng = np.random.default_rng(13)
    data = make_dataset(rng, m=4, sizes=(5, 6, 4, 5), d=2, spread=1.0)
    spec = SmoothingSpec(Kernel.NORMAL, 0.4)
    beta = np.array([0.8, 1.3])
    _, full = shum_gradient_full(data, beta, spec)
    fd = central_difference(lambda b: shum_value(data, b, spec), beta)
    np.testing.assert_allclose(full, fd, rtol=1e-5, atol=1e-9)
    _, anchored = shum_gradient(data, beta, spec, 1)
    assert anchored.shape == (1,)
    assert anchored[0] == full[0]


def test_constant_marker_has_zero_gradient_component():
    rng = np.random.default_rng(4)
    cats = []
    for mu in (0.0, 1.0, 2.0):
        x = rng.normal(mu, 1.0, size=(7, 2))
        x[:, 1] = 5.0
        cats.append(x)
    data = MarkerDataset(tuple(cats), ("a", "b"), ("0", "1", "2"))
    _, grad = shum_gradient_full(
        data, np.array([1.0, 0.2]), SmoothingSpec(Kernel.SIGMOID, 0.1)
    )
    assert grad[1] == pytest.approx(0.0, abs=1e-12)


def test_lambda_rule_check_matches_pair_fraction():
    rng = np.random.default_rng(8)
    data = make_dataset(rng, m=3, sizes=(9, 8, 10), d=2, spread=1.5)
    beta = np.array([1.0, 0.5])
    for lam in (1.0, 0.1, 0.01):
        got = lambda_rule_check(data, beta, lam)
        want = pair_rule_fraction(
            [dot_scores(c, beta) for c in data.categories], lam
        )
        assert got == pytest.approx(want)
    assert lambda_rule_check(data, beta, 1e-6) == 1.0

    # pairs exactly 5*lam apart do not count; lam and scores are dyadic, so
    # every difference and quotient is exact
    lam = 0.125
    cats = tuple(np.array([[v] for v in vals]) for vals in
                 ([0.0, 1.0], [0.625, 1.625, 3.0], [2.375, 3.625, 3.75]))
    data = MarkerDataset(cats, ("a",), ("0", "1", "2"))
    want = pair_rule_fraction([c[:, 0] for c in cats], lam)
    assert lambda_rule_check(data, np.array([1.0]), lam) == want
    assert want == 10 / 15   # four pairs sit exactly 5*lam apart


def test_lambda_rule_check_over_several_blocks_and_a_wide_lambda(monkeypatch):
    rng = np.random.default_rng(9)
    data = make_dataset(rng, m=4, sizes=(30, 25, 40, 20), d=2, spread=0.5)
    beta = np.array([1.0, -0.6])
    scores = [dot_scores(c, beta) for c in data.categories]
    monkeypatch.setattr(smooth, "_BLOCK", 7)
    for lam in (0.01, 0.1, 0.5):
        assert lambda_rule_check(data, beta, lam) == pair_rule_fraction(scores, lam)
    # every pair lies within 5*lam
    assert lambda_rule_check(data, beta, 100.0) == 0.0


# ---------------------------------------------------------------------------
# banded chain against the dense chain
# ---------------------------------------------------------------------------

def _assert_matches_dense(data, beta, spec):
    scores = [x @ beta for x in data.categories]
    value = shum_from_scores(scores, spec)
    # each dropped pair removes under 1e-16 from the tuple products it enters
    assert value == pytest.approx(dense_shum(scores, spec.kernel, spec.lam),
                                  rel=1e-12, abs=1e-16)
    fused, grad = shum_gradient_full(data, beta, spec)
    assert fused == value
    want = dense_shum_gradient(data.categories, beta, spec.kernel, spec.lam)
    # the dropped derivative entries, below 1e-16/lam, each enter two terms
    # of one level, weighted by a marker value
    x_max = max(np.abs(x).max() for x in data.categories)
    floor = 2e-16 * (len(scores) - 1) * np.sqrt(beta.size) * x_max / spec.lam
    assert np.linalg.norm(grad - want) <= 1e-10 * np.linalg.norm(want) + floor


@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("m,sizes", [(3, (9, 14, 6)), (4, (7, 12, 5, 10)), (2, (9, 14))])
def test_banded_chain_matches_dense_chain(kernel, m, sizes):
    rng = np.random.default_rng(21)
    data = make_dataset(rng, m=m, sizes=sizes, d=3, spread=1.0)
    lam = 0.05
    for _ in range(10):
        beta = rng.uniform(-10.0, 10.0, size=3)
        _assert_matches_dense(data, beta, SmoothingSpec(kernel, lam))
    for beta in ([10.0, -10.0, 10.0], [-10.0, -10.0, -10.0], [1.0, 0.0, 0.0]):
        _assert_matches_dense(data, np.array(beta), SmoothingSpec(kernel, lam))


@pytest.mark.parametrize("kernel", list(Kernel))
def test_banded_chain_with_ties(kernel):
    rng = np.random.default_rng(22)
    cats = tuple(np.round(rng.normal(0.3 * j, 1.0, size=(n, 2)), 1)
                 for j, n in enumerate((11, 8, 13)))
    data = MarkerDataset(cats, ("a", "b"), ("0", "1", "2"))
    for beta in ([1.0, 0.0], [1.0, 1.0], [2.0, -1.0]):
        _assert_matches_dense(data, np.array(beta), SmoothingSpec(kernel, 0.05))


@pytest.mark.parametrize("kernel", list(Kernel))
def test_banded_chain_pairs_exactly_at_the_band_edge(kernel):
    # dyadic lam: t*lam and every score below are exact, so pairs sit at
    # exactly +t*lam and -t*lam, next to pairs one step inside and outside
    lam = 0.0625
    reach = SATURATION[kernel] * lam
    step = 2.0 ** -10
    base = np.array([0.0, 0.5, 1.0])
    levels = [base,
              np.concatenate([base + reach, base - reach, base + reach + step,
                              base - reach - step, base + reach - step]),
              np.concatenate([base + 2 * reach, base, base - step])]
    cats = tuple(v[:, None] for v in levels)
    data = MarkerDataset(cats, ("a",), ("0", "1", "2"))
    _assert_matches_dense(data, np.array([1.0]), SmoothingSpec(kernel, lam))


@pytest.mark.parametrize("kernel", list(Kernel))
def test_banded_chain_with_every_pair_in_the_band(kernel):
    rng = np.random.default_rng(23)
    data = make_dataset(rng, m=3, sizes=(10, 12, 9), d=2, spread=1.0)
    beta = np.array([0.7, -0.4])
    spread = max(np.ptp(np.concatenate([x @ beta for x in data.categories])), 1.0)
    _assert_matches_dense(data, beta, SmoothingSpec(kernel, 10.0 * spread))


@pytest.mark.parametrize("kernel", list(Kernel))
def test_banded_chain_matches_dense_chain_at_n1000(kernel):
    data = generate_scenario(ScenarioConfig(1, (1000, 1000, 1000)), 0)
    spec = SmoothingSpec(kernel, default_lambda(data.n_total))
    for beta in ([1.0, 1.1, 1.2], [-0.3, 1.0, 0.4]):
        _assert_matches_dense(data, np.array(beta), spec)


def test_saturation_constants_pin_the_clamped_kernel():
    for kernel, t in SATURATION.items():
        for lam in (1.0, 0.1, 0.0183, 1e-3):
            assert kernel_eval(kernel, t * lam, lam) == _HIGH
            assert kernel_eval(kernel, -t * lam, lam) < 1e-16


@pytest.mark.parametrize("kernel", list(Kernel))
def test_banded_chain_in_small_blocks_matches_dense_chain(kernel, monkeypatch):
    rng = np.random.default_rng(24)
    data = make_dataset(rng, m=4, sizes=(30, 25, 40, 20), d=2, spread=0.5)
    monkeypatch.setattr(smooth, "_BLOCK", 7)
    for lam in (0.05, 100.0):
        _assert_matches_dense(data, np.array([1.0, -0.6]), SmoothingSpec(kernel, lam))


@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("block", [None, 7])
def test_gradient_pass_value_equals_the_value_chain(kernel, m, block, monkeypatch):
    # the value the gradient pass returns is shum_from_scores's, bit for bit
    rng = np.random.default_rng(25)
    data = make_dataset(rng, m=m, sizes=(30, 25, 40, 20), d=3, spread=0.5)
    if block is not None:
        monkeypatch.setattr(smooth, "_BLOCK", block)
    for lam in (0.05, 0.3, 100.0):
        spec = SmoothingSpec(kernel, lam)
        for beta in (np.array([1.0, -0.6, 0.3]), rng.normal(size=3)):
            value, _ = shum_gradient_full(data, beta, spec)
            assert value == shum_from_scores(project_scores(data, beta), spec)
            assert shum_gradient(data, beta, spec, 0)[0] == value


@pytest.mark.parametrize("fn", [shum_value, shum_gradient_full])
@pytest.mark.parametrize("wide", [False, True])
def test_chain_memory_stays_below_one_dense_matrix(fn, wide):
    # at lam=100 every pair is in the band
    n = 3000
    data = generate_scenario(ScenarioConfig(1, (n, n, n)), 0)
    lam = 100.0 if wide else default_lambda(data.n_total)
    spec = SmoothingSpec(Kernel.SIGMOID, lam)
    beta = np.array([1.0, 1.1, 1.2])
    tracemalloc.start()
    try:
        fn(data, beta, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts page faults under glibc's malloc")
@pytest.mark.parametrize("fn", [shum_value, shum_gradient_full])
def test_repeated_chain_calls_reuse_their_memory(fn):
    # given a dozen fresh band-sized temporaries per block, malloc hands the
    # memory back at the end of every call and the next call page-faults it
    # in again: about 2,200 faults per value call and 3,500 per gradient
    # call at n=1000, and a fifth to two fifths of their time
    data = generate_scenario(ScenarioConfig(1, (1000, 1000, 1000)), 0)
    spec = SmoothingSpec(Kernel.SIGMOID, default_lambda(data.n_total))
    beta = np.array([1.0, 1.1, 1.2])
    for _ in range(3):
        fn(data, beta, spec)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        fn(data, beta, spec)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 10 * 100
