import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censlasso.aggregation import (
    AggregatedResult,
    AggregationPlan,
    aggregate,
    fit_aggregated,
    interleaved_split,
    vote_support,
)
from censlasso.data import GenerationSpec, SurvivalDataset, generate_dataset
from censlasso.errors import DegenerateWeights, DimensionMismatch, InvalidK, NoConvergence
from censlasso.kaplan_meier import fit_censoring_km, ipcw_weights
from censlasso.losses import LossKind
from censlasso.solvers import (
    EstimatorResult,
    FitConfig,
    fit_adaptive_lasso,
    fit_unpenalized,
)


def result_with_beta(beta):
    return EstimatorResult(
        beta=np.asarray(beta, dtype=float), intercepts=np.zeros(0),
        objective=0.0, iterations=1, converged=True,
    )


def make_problem(n, p=4, seed=0, beta=None):
    beta = beta or (1.0, -2.0) + (0.0,) * (p - 2)
    spec = GenerationSpec(n=n, p=p, beta0=beta, seed=seed)
    return generate_dataset(spec, bound=8.0)


# --- splitting --------------------------------------------------------------

def test_interleaved_split_paper_example():
    ga = interleaved_split(6, 2)
    # the 1-based groups {1,3,5} and {2,4,6}
    assert np.array_equal(ga.groups[0], [0, 2, 4])
    assert np.array_equal(ga.groups[1], [1, 3, 5])
    assert ga.n_used == 6 and ga.n_dropped == 0


def test_interleaved_split_single_group():
    ga = interleaved_split(5, 1)
    assert np.array_equal(ga.groups[0], np.arange(5))


def test_interleaved_split_drops_remainder_with_warning():
    with pytest.warns(UserWarning, match="dropping the trailing 1"):
        ga = interleaved_split(7, 2)
    assert ga.n_used == 6
    assert ga.n_dropped == 1
    assert all(len(g) == 3 for g in ga.groups)


def test_interleaved_split_invalid_k():
    with pytest.raises(InvalidK):
        interleaved_split(3, 4)
    with pytest.raises(InvalidK):
        interleaved_split(3, 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 200), st.integers(1, 20))
def test_interleaved_split_partitions(n, K):
    if K > n:
        with pytest.raises(InvalidK):
            interleaved_split(n, K)
        return
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ga = interleaved_split(n, K)
    sizes = {len(g) for g in ga.groups}
    assert sizes == {n // K}
    merged = np.sort(np.concatenate(ga.groups))
    assert np.array_equal(merged, np.arange(ga.n_used))


# --- voting and averaging ----------------------------------------------------

def test_vote_support_thresholds():
    # the supports {0, 1}, {1}, {1, 2}, {1}, {0} of K = 5 groups
    counts = np.array([2, 4, 1])
    assert vote_support(counts, 2, 5) == {0, 1}
    assert vote_support(counts, 1, 5) == {0, 1, 2}
    assert vote_support(counts, 5, 5) == set()
    assert 2 not in vote_support(counts, 2, 5)  # selected once, w=2


def test_vote_support_validates_w():
    with pytest.raises(ValueError):
        vote_support([1], 2, 1)
    with pytest.raises(ValueError):
        vote_support([1], 0, 1)


def test_aggregate_single_group():
    res = result_with_beta([1.0, 0.0, -0.5])
    out = aggregate([res], res.support, 1)
    assert np.array_equal(out, [1.0, 0.0, -0.5])


def test_aggregate_identical_groups():
    res = result_with_beta([1.0, -2.0, 0.0])
    out = aggregate([res, res, res], {0, 1}, 3)
    assert np.array_equal(out, [1.0, -2.0, 0.0])


def test_aggregate_hand_example_mean_includes_zeros():
    a = result_with_beta([1.0, 0.0])
    b = result_with_beta([0.0, 0.0])
    out = aggregate([a, b], {0}, 2)
    assert out[0] == pytest.approx(0.5)
    assert out[1] == 0.0


def test_aggregate_dimension_checks():
    a = result_with_beta([1.0, 0.0])
    b = result_with_beta([1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        aggregate([a, b], {0}, 2)
    with pytest.raises(DimensionMismatch):
        aggregate([a], {5}, 1)
    with pytest.raises(DimensionMismatch):
        aggregate([a, a], {0}, 3)


def test_plan_resolved_w():
    assert AggregationPlan(K=25).resolved_w == 5
    assert AggregationPlan(K=20).resolved_w == 4
    assert AggregationPlan(K=1).resolved_w == 1
    assert AggregationPlan(K=10, w=3).resolved_w == 3
    with pytest.raises(ValueError):
        AggregationPlan(K=4, w=5)
    with pytest.raises(ValueError):
        AggregationPlan(K=0)


# --- full pipeline -----------------------------------------------------------

def test_fit_aggregated_k1_identical_to_full_fit(monkeypatch):
    ds = make_problem(150, p=4, seed=3)
    loss = LossKind("expectile", tau=0.4)
    config = FitConfig(loss=loss, lam=150 ** 0.4)
    with monkeypatch.context() as m:
        # the one group is the dataset itself, not a copy of it
        m.setattr(SurvivalDataset, "subset", None)
        agg = fit_aggregated(ds, AggregationPlan(K=1, w=1), config)
    curve = fit_censoring_km(ds)
    weights = ipcw_weights(ds, curve)
    pilot = fit_unpenalized(ds, weights, loss, config.replace(lam=0.0))
    direct = fit_adaptive_lasso(ds, weights, config, pilot.beta)
    assert np.array_equal(agg.beta_check, direct.beta)
    assert agg.voted_support == direct.support


def test_fit_aggregated_support_containment_and_votes():
    ds = make_problem(600, p=6, seed=4)
    loss = LossKind("expectile", tau=0.35)
    config = FitConfig(loss=loss, lam=(600 // 3) ** 0.4)
    agg = fit_aggregated(ds, AggregationPlan(K=3, w=2), config)
    assert agg.support <= agg.voted_support
    assert len(agg.group_results) == 3
    for j in agg.voted_support:
        assert agg.vote_counts[j] >= 2
    assert agg.vote_counts.tolist() == [
        sum(j in r.support for r in agg.group_results) for j in range(ds.p)
    ]
    # beta_check is the plain mean on the voted support
    stacked = np.stack([r.beta for r in agg.group_results])
    for j in agg.voted_support:
        assert agg.beta_check[j] == pytest.approx(stacked[:, j].mean())


def test_fit_aggregated_parallel_matches_serial():
    ds = make_problem(400, p=4, seed=5)
    loss = LossKind("expectile", tau=0.4)
    config = FitConfig(loss=loss, lam=100 ** 0.4)
    plan = AggregationPlan(K=4, w=2)
    serial = fit_aggregated(ds, plan, config, n_jobs=1)
    threaded = fit_aggregated(ds, plan, config, n_jobs=4)
    assert np.array_equal(serial.beta_check, threaded.beta_check)


def test_fit_aggregated_km_scopes_both_run():
    ds = make_problem(300, p=3, seed=6, beta=(1.0, -1.0, 0.0))
    loss = LossKind("quantile", tau=0.4)
    config = FitConfig(loss=loss, lam=100 ** 0.4)
    per_group = fit_aggregated(
        ds, AggregationPlan(K=3, w=1, km_scope="per_group"), config
    )
    global_scope = fit_aggregated(
        ds, AggregationPlan(K=3, w=1, km_scope="global"), config
    )
    assert per_group.beta_check.shape == global_scope.beta_check.shape
    # same seed, same data: supports should broadly agree on the signal
    assert 0 in per_group.voted_support and 0 in global_scope.voted_support


def test_fit_aggregated_per_group_tuning():
    ds = make_problem(400, p=4, seed=7)
    loss = LossKind("expectile", tau=0.4)
    config = FitConfig(loss=loss)
    plan = AggregationPlan(K=2, w=1, per_group_tuning=True)
    agg = fit_aggregated(ds, plan, config)
    assert len(agg.group_lambdas) == 2
    grid = (ds.n // 2) ** np.array([0.5 - 1 / (10 * j) for j in range(1, 21)])
    for lam in agg.group_lambdas:
        assert any(np.isclose(lam, grid))


def test_fit_aggregated_support_equals_vote_generically():
    ds = make_problem(800, p=5, seed=10)
    loss = LossKind("expectile", tau=0.4)
    agg = fit_aggregated(ds, AggregationPlan(K=4, w=2),
                         FitConfig(loss=loss, lam=200 ** 0.4))
    # generic continuous fits never cancel exactly in the group mean
    assert agg.support == agg.voted_support


def test_fit_aggregated_degenerate_group_aborts():
    # group of odd indices is entirely censored, so its IPCW weights vanish
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    delta = np.array([1, 0, 1, 0, 1, 0])
    rng = np.random.default_rng(0)
    ds = SurvivalDataset(y, delta, rng.normal(size=(6, 2)))
    loss = LossKind("expectile", tau=0.5)
    with pytest.raises(DegenerateWeights):
        fit_aggregated(ds, AggregationPlan(K=2, w=1), FitConfig(loss=loss, lam=1.0))


def test_fit_aggregated_never_votes_unconverged_groups():
    # one Newton step cannot finish either group's pilot
    ds = generate_dataset(GenerationSpec(n=2000, p=10, beta0=(1.0, -2.0) + (0.0,) * 8, seed=0))
    config = FitConfig(loss=LossKind("expectile", tau=0.3), lam=5.0, max_iter=1)
    with pytest.raises(NoConvergence):
        fit_aggregated(ds, AggregationPlan(K=2, w=1), config)


def test_group_event_fractions_close_to_global():
    ds = make_problem(10_000, p=4, seed=8)
    ga = interleaved_split(ds.n, 10)
    global_frac = ds.delta.mean()
    for g in ga.groups:
        assert abs(ds.delta[g].mean() - global_frac) < 0.05


def test_aggregated_result_serializable():
    ds = make_problem(200, p=3, seed=9, beta=(1.0, -1.0, 0.0))
    loss = LossKind("expectile", tau=0.4)
    agg = fit_aggregated(ds, AggregationPlan(K=2, w=1),
                         FitConfig(loss=loss, lam=100 ** 0.4))
    payload = json.loads(json.dumps(agg.to_dict()))
    assert payload["voted_support"] == sorted(agg.voted_support)
    assert len(payload["beta_check"]) == 3
    assert len(payload["group_supports"]) == 2
    assert len(payload["group_lambdas"]) == 2
