import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from censlasso.aggregation import (
    AggregatedResult,
    AggregationPlan,
    _blas_pins,
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
    adaptive_weights,
    fit_adaptive_lasso,
    fit_unpenalized,
    kkt_residual,
)
from censlasso.tuning import BicConfig, fixed_lambda

from helpers import make_weights, padded_rows


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


@pytest.mark.parametrize("loss", [LossKind("expectile", tau=0.4), LossKind("median")],
                         ids=["expectile", "median"])
def test_fit_aggregated_n_jobs_changes_nothing(loss, monkeypatch):
    # the groups run as stacks in the calling thread whatever n_jobs is
    from censlasso import aggregation

    def no_pool(*args, **kwargs):
        raise AssertionError("fit_aggregated started a thread pool")

    monkeypatch.setattr(aggregation, "ThreadPoolExecutor", no_pool)
    ds = make_problem(400, p=4, seed=5)
    config = FitConfig(loss=loss, lam=100 ** 0.4)
    plan = AggregationPlan(K=4, w=2)
    serial = fit_aggregated(ds, plan, config, n_jobs=1)
    other = fit_aggregated(ds, plan, config, n_jobs=4)
    assert np.array_equal(serial.beta_check, other.beta_check)
    for a, b in zip(serial.group_results, other.group_results):
        assert np.array_equal(a.beta, b.beta) and a.objective == b.objective
        assert a.iterations == b.iterations


# --- groups on worker processes ----------------------------------------------

def counting_pool(monkeypatch):
    """The worker counts of every process pool fit_aggregated starts."""
    from censlasso import aggregation

    started, real = [], aggregation.ProcessPoolExecutor

    def pool(max_workers, **kwargs):
        started.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(aggregation, "ProcessPoolExecutor", pool)
    return started


# where the platform cannot fork or no OpenBLAS thread setter is loaded,
# fit_aggregated stays serial: the fallback test covers that path
needs_pool = pytest.mark.skipif(not _blas_pins(), reason="no fork or no OpenBLAS thread setter")


def same_result(a, b):
    assert np.array_equal(a.beta, b.beta) and np.array_equal(a.intercepts, b.intercepts)
    assert (a.objective, a.iterations, a.converged, a.duality_gap, a.kkt_residual) == \
        (b.objective, b.iterations, b.converged, b.duality_gap, b.kkt_residual)


@needs_pool
@pytest.mark.parametrize("tuned", [False, True], ids=["fixed", "bic"])
@pytest.mark.parametrize("loss", [LossKind("expectile", tau=0.4), LossKind("median"),
                                  LossKind("quantile", tau=0.3)],
                         ids=["expectile", "median", "quantile"])
def test_pooled_groups_are_the_serial_groups(loss, tuned, monkeypatch):
    # groups that run one at a time are fitted on worker processes, each
    # the fit it gets in the calling process
    from censlasso import solvers

    monkeypatch.setattr(solvers, "_OWN_STACK", 0)
    started = counting_pool(monkeypatch)
    ds = make_problem(400, p=4, seed=5)
    config = FitConfig(loss=loss, lam=100 ** 0.4)
    bic = BicConfig() if tuned else None
    plan = AggregationPlan(K=4, w=2)
    serial = fit_aggregated(ds, plan, config, bic_config=bic, n_jobs=1)
    assert started == []
    pooled = fit_aggregated(ds, plan, config, bic_config=bic, n_jobs=3)
    assert started == [3]
    assert np.array_equal(serial.beta_check, pooled.beta_check)
    assert serial.voted_support == pooled.voted_support
    assert serial.group_lambdas == pooled.group_lambdas
    assert np.array_equal(serial.vote_counts, pooled.vote_counts)
    for a, b in zip(serial.group_results, pooled.group_results):
        same_result(a, b)
        assert not b.beta.flags.writeable and not b.intercepts.flags.writeable
    # no more workers than groups
    fit_aggregated(ds, AggregationPlan(K=2, w=1), config, bic_config=bic, n_jobs=8)
    assert started == [3, 2]


def test_groups_too_large_to_stack_are_their_single_fits(monkeypatch):
    # groups whose designs pass _OWN_STACK doubles run one at a time, each on
    # its own rows with no padding: 25 shared-row problems of one each, the
    # pilots' and then the penalized fits', each its single fit bit for bit
    from censlasso import solvers

    ds = make_problem(2500, p=5, seed=2)
    subs = [ds.subset(g) for g in interleaved_split(ds.n, 25).groups]
    weights = [ipcw_weights(sub, fit_censoring_km(sub)) for sub in subs]
    active = [int(np.count_nonzero(w.w)) for w in weights]
    seen, real = [], solvers._frisch_newton

    def spy(lp, *args):
        seen.append((len(lp.lo), lp.real is not None))
        return real(lp, *args)

    loss = LossKind("median")
    config = FitConfig(loss=loss, lam=4.0)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_frisch_newton", spy)
        patch.setattr(solvers, "_OWN_STACK", max(active) * ds.p - 1)
        agg = fit_aggregated(ds, AggregationPlan(K=25, w=5), config)
    assert seen == [(1, False)] * 50
    for sub, w, fit in zip(subs, weights, agg.group_results):
        pilot = fit_unpenalized(sub, w, loss, config)
        same_result(fit, fit_adaptive_lasso(sub, w, config, pilot.beta))


def test_groups_fitted_one_at_a_time_build_their_rows_in_turn(monkeypatch):
    # each group's rows are built just before its own fits, so that only
    # one group's copy is held at a time
    from censlasso import solvers

    steps, subset, fit_path = [], SurvivalDataset.subset, solvers._fit_path

    def subset_spy(self, indices):
        steps.append("subset")
        return subset(self, indices)

    def fit_spy(*args, **kwargs):
        steps.append("fit")
        return fit_path(*args, **kwargs)

    monkeypatch.setattr(SurvivalDataset, "subset", subset_spy)
    monkeypatch.setattr(solvers, "_fit_path", fit_spy)
    ds = make_problem(400, p=4, seed=5)
    plan, config = AggregationPlan(K=4, w=2), FitConfig(loss=LossKind("median"), lam=4.0)
    fit_aggregated(ds, plan, config)
    assert steps == ["subset"] * 4 + ["fit"] * 2  # one stack
    steps.clear()
    monkeypatch.setattr(solvers, "_OWN_STACK", 0)
    fit_aggregated(ds, plan, config)
    assert steps == ["subset", "fit", "fit"] * 4


def test_stacked_groups_stay_in_the_calling_process(monkeypatch):
    started = counting_pool(monkeypatch)
    ds = make_problem(400, p=4, seed=5)
    loss = LossKind("median")
    fit_aggregated(ds, AggregationPlan(K=4, w=2), FitConfig(loss=loss, lam=4.0), n_jobs=4)
    assert started == []


def test_groups_stay_serial_without_a_blas_thread_setter(monkeypatch):
    from censlasso import aggregation, solvers

    monkeypatch.setattr(solvers, "_OWN_STACK", 0)
    monkeypatch.setattr(aggregation, "_blas_pins", lambda: [])
    started = counting_pool(monkeypatch)
    ds = make_problem(400, p=4, seed=5)
    config = FitConfig(loss=LossKind("median"), lam=4.0)
    plan = AggregationPlan(K=4, w=2)
    serial = fit_aggregated(ds, plan, config, n_jobs=1)
    other = fit_aggregated(ds, plan, config, n_jobs=3)
    assert started == []
    for a, b in zip(serial.group_results, other.group_results):
        same_result(a, b)


@needs_pool
def test_pooled_group_that_fails_raises_the_serial_error(monkeypatch):
    # the first failing group in group order, pilots first, as serially
    from censlasso import solvers

    monkeypatch.setattr(solvers, "_OWN_STACK", 0)
    started = counting_pool(monkeypatch)
    ds = make_problem(400, p=4, seed=5)
    config = FitConfig(loss=LossKind("median"), lam=4.0, max_iter=1)
    plan = AggregationPlan(K=4, w=2)
    errors = []
    for n_jobs in (1, 2):
        with pytest.raises(NoConvergence) as exc:
            fit_aggregated(ds, plan, config, n_jobs=n_jobs)
        errors.append(str(exc.value))
    assert started == [2] and errors[0] == errors[1]


# --- group stacks against groups fitted alone ---------------------------------

STACK_LOSSES = [LossKind("median"), LossKind("quantile", tau=0.3),
                LossKind("composite_quantile", n_levels=3), LossKind("expectile", tau=0.3)]


def group_stack_case(seed, n, p, K, ties, one_event):
    """A dataset for K groups: tied follow-up times (log scale on a 0.25
    grid, so that ties fall across group boundaries), and group 0 left with
    exactly one event; censoring makes the groups' active-row counts differ."""
    ds = make_problem(n, p=p, seed=seed)
    y, delta = ds.y, ds.delta.copy()
    if ties:
        y = np.exp(np.round(np.log(y) * 4.0) / 4.0)
    if one_event:
        group = np.arange(0, K * (n // K), K)
        delta[group] = 0
        delta[group[len(group) // 2]] = 1
    return SurvivalDataset(y, delta, ds.x)


@pytest.mark.parametrize("fit_intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("loss", STACK_LOSSES,
                         ids=["median", "quantile0.3", "composite3", "expectile0.3"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 160), p=st.integers(2, 4),
       K=st.integers(2, 6), ties=st.booleans(), one_event=st.booleans())
def test_group_stack_fits_are_the_groups_fitted_alone(loss, fit_intercept, seed, n, p, K,
                                                      ties, one_event):
    # the K pilots run as one stack and the K penalized fits as another, each
    # group on its own rows padded to the stack's longest: each group's fit
    # must be the one it gets alone (same support, objective within 1e-9
    # relative) and meet its KKT bound
    import warnings

    ds = group_stack_case(seed, n, p, K, ties, one_event)
    plan = AggregationPlan(K=K, w=1)
    config = FitConfig(loss=loss, lam=(n // K) ** 0.4, fit_intercept=fit_intercept)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # K need not divide n
        groups = interleaved_split(ds.n, K).groups
        # a group without an event has no IPCW weights: fit_aggregated
        # raises DegenerateWeights for it, by design
        assume(all(ds.delta[g].any() for g in groups))
        agg = fit_aggregated(ds, plan, config)
    subs = [ds.subset(g) for g in groups]
    weights = [ipcw_weights(sub, fit_censoring_km(sub)) for sub in subs]
    pilots = fit_unpenalized(subs, weights, loss, config)
    for sub, w, pilot, fit in zip(subs, weights, pilots, agg.group_results):
        bound = (1e-9 if loss.is_lp_family else 1e-6) * sub.n
        alone_pilot = fit_unpenalized(sub, w, loss, config)
        alone = fit_adaptive_lasso(sub, w, config, alone_pilot.beta)
        for got, want in ((pilot, alone_pilot), (fit, alone)):
            assert got.support == want.support
            assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))
        assert pilot.kkt_residual <= bound
        omega = adaptive_weights(pilot.beta, config.gamma)
        assert kkt_residual(sub, w, loss, config.lam, omega, fit) <= bound
        assert fit.kkt_residual <= bound


def test_group_stacks_pad_and_split(monkeypatch):
    # 25 groups of different active-row counts: padding is used, and the
    # groups split into stacks of _STACK // (rows + p), rows being the
    # longest group's active-row count
    from censlasso import solvers

    ds = make_problem(2500, p=5, seed=2)
    subs = [ds.subset(g) for g in interleaved_split(ds.n, 25).groups]
    weights = [ipcw_weights(sub, fit_censoring_km(sub)) for sub in subs]
    active = {int(np.count_nonzero(w.w)) for w in weights}
    assert len(active) > 1
    seen = []
    real = solvers._frisch_newton

    def spy(lp, *args):
        seen.append((len(lp.lo), lp.real is not None))
        return real(lp, *args)

    loss = LossKind("median")
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_frisch_newton", spy)
        patch.setattr(solvers, "_STACK", 10 * (max(active) + 5))
        fits = fit_unpenalized(subs, weights, loss, FitConfig(loss=loss))
    assert [count for count, _ in seen] == [10, 10, 5] and all(padded for _, padded in seen)
    for sub, w, fit in zip(subs, weights, fits):
        alone = fit_unpenalized(sub, w, loss)
        assert fit.support == alone.support
        assert abs(fit.objective - alone.objective) <= 1e-9 * alone.objective


def group_rows(dataset, weights):
    """A group's active rows (x, z, w), copied out of its dataset."""
    keep = weights.w > 0.0
    return dataset.x[keep], np.log(dataset.y[keep]), weights.w[keep]


@pytest.mark.parametrize("loss", STACK_LOSSES,
                         ids=["median", "quantile0.3", "composite3", "expectile0.3"])
def test_gathered_group_stacks_are_the_padded_copies(loss):
    # each group's active rows are gathered straight into the padded stack:
    # the stack, and the pilots and penalized fits on it (betas, iterations,
    # objectives), are those of the stack padded from copies of the rows
    from censlasso import solvers

    ds = make_problem(600, p=4, seed=5)
    subs = [ds.subset(g) for g in interleaved_split(ds.n, 6).groups]
    weights = [ipcw_weights(sub, fit_censoring_km(sub)) for sub in subs]
    assert len({int(np.count_nonzero(w.w)) for w in weights}) > 1  # padding is used
    stack = padded_rows([group_rows(sub, w) for sub, w in zip(subs, weights)])
    gathered = solvers._padded([solvers._group(sub, w) for sub, w in zip(subs, weights)])
    assert all(np.array_equal(a, b) for a, b in zip(gathered, stack))

    config = FitConfig(loss=loss, lam=2.0)
    pilots = fit_unpenalized(subs, weights, loss, config)
    tildes = np.array([pilot.beta for pilot in pilots])
    fits = fit_adaptive_lasso(subs, weights, config, tildes)
    want = (solvers._fit_path(*stack, loss, np.zeros(tildes.shape), config)
            + solvers._fit_path(*stack, loss, config.lam * adaptive_weights(tildes),
                                config, beta_start=tildes))
    assert len(pilots) == len(fits) == len(want) // 2 == len(subs)
    for got, ref in zip(list(pilots) + list(fits), want):
        assert np.array_equal(got.beta, ref.beta)
        assert np.array_equal(got.intercepts, ref.intercepts)
        assert got.iterations == ref.iterations and got.objective == ref.objective


def test_stacked_pilot_holds_no_copy_of_the_groups_rows():
    # the aggregated median pilot and penalized fit of 25 groups at n = 2e4,
    # p = 50 (lambda 800^0.4), one stack each.  Their peak traced memory, in
    # padded stacks (x alone), measured at seeds 1-7: pilot 2.75-3.16, where
    # it was 3.93-4.17 while certification copied the stack three more
    # times (and 4.95-5.18 before the groups were gathered in place);
    # penalized 1.78-2.15, where it was 3.36-4.19 while each group's own
    # columns were all its kept ones: now only its working set's are copied
    import tracemalloc

    ds = make_problem(20_000, p=50, seed=1)
    subs = [ds.subset(g) for g in interleaved_split(ds.n, 25).groups]
    weights = [ipcw_weights(sub, fit_censoring_km(sub)) for sub in subs]
    stack_bytes = 25 * max(int(np.count_nonzero(w.w)) for w in weights) * ds.p * 8
    loss = LossKind("median")
    config = FitConfig(loss=loss, lam=fixed_lambda(800, 1))
    tracemalloc.start()
    try:
        pilots = fit_unpenalized(subs, weights, loss, config)
        pilot_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fit_adaptive_lasso(subs, weights, config, [pilot.beta for pilot in pilots])
        penalized_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pilot_peak <= 3.4 * stack_bytes
    assert penalized_peak <= min(2.4 * stack_bytes, pilot_peak)


def test_stacked_expectile_pilot_peak_does_not_rise_when_groups_finish():
    # the aggregated expectile(0.3) pilot of 25 groups at n = 2e4, p = 50
    # (seed 3): the Newton steps read the live groups' rows from the
    # caller's stack, so the steps after some groups finish peak no higher
    # than those before.  Measured in padded stacks (x alone) at seeds 1-7:
    # 3.42-3.43 before the first group finishes, 1.35-3.28 after; when the
    # live groups' rows were copied at each finish, 4.06 after (seed 3)
    import tracemalloc

    from censlasso import solvers

    ds = make_problem(20_000, p=50, seed=3)
    subs = [ds.subset(g) for g in interleaved_split(ds.n, 25).groups]
    weights = [ipcw_weights(sub, fit_censoring_km(sub)) for sub in subs]
    loss = LossKind("expectile", tau=0.3)
    steps, grams = [], solvers._weighted_grams

    def spy(block, q, dim, blocks):
        # the peak since the previous step, which ran with steps[-1][0] groups
        steps.append((len(q), tracemalloc.get_traced_memory()[1]))
        tracemalloc.reset_peak()
        return grams(block, q, dim, blocks)

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_weighted_grams", spy)
            fit_unpenalized(subs, weights, loss, FitConfig(loss=loss))
        steps.append((0, tracemalloc.get_traced_memory()[1]))
    finally:
        tracemalloc.stop()
    peaks = [(count, peak) for (count, _), (_, peak) in zip(steps, steps[1:])]
    before = [peak for count, peak in peaks if count == len(subs)]
    after = [peak for count, peak in peaks if count < len(subs)]
    assert before and after
    assert max(after) <= max(before)


@pytest.mark.parametrize("loss", [LossKind("median"), LossKind("composite_quantile", n_levels=3)],
                         ids=["median", "composite"])
@pytest.mark.parametrize("failing", ["middle", "longest"])
def test_failing_group_polish_leaves_the_other_groups_as_they_were(failing, loss, monkeypatch):
    # the groups' pilots run as one stack on rows of their own.  One group's
    # vertex fails, in the stack and when it is fitted again alone, so that
    # group fails alone; every other group's fit and certificates are the
    # clean run's bit for bit, also when the failing group has the most rows
    # (its chunk still certifies it, at 0, so the chunk keeps its padding)
    from censlasso import solvers

    ds = make_problem(2000, p=10, seed=2)
    subs = [ds.subset(g) for g in interleaved_split(ds.n, 5).groups]
    weights = [ipcw_weights(sub, fit_censoring_km(sub)) for sub in subs]
    counts = [int(np.count_nonzero(w.w)) for w in weights]
    bad = 2 if failing == "middle" else int(np.argmax(counts))
    assert failing == "longest" or counts[bad] < max(counts)
    config = FitConfig(loss=loss)
    clean = fit_unpenalized(subs, weights, loss, config)
    z_bad = np.log(subs[bad].y[weights[bad].w > 0.0])
    real = solvers._polish

    def polish(lp, live, a, theta):
        resp = np.broadcast_to(lp.resp, lp.lo.shape)  # a row per problem
        return {k: vertex for k, vertex in real(lp, live, a, theta).items()
                if not np.array_equal(resp[k, :len(z_bad)], z_bad)}

    monkeypatch.setattr(solvers, "_polish", polish)
    fits = fit_unpenalized(subs, weights, loss, config)
    assert isinstance(fits[bad], NoConvergence)
    assert "no vertex it ranked passed the optimality check" in str(fits[bad])
    for k, (got, want) in enumerate(zip(fits, clean)):
        if k == bad:
            continue
        assert np.array_equal(got.beta, want.beta), k
        assert np.array_equal(got.intercepts, want.intercepts), k
        for attr in ("objective", "iterations", "duality_gap", "kkt_residual"):
            assert getattr(got, attr) == getattr(want, attr), (k, attr)


@pytest.mark.parametrize("call", ["pilot", "penalized"])
def test_group_checks_come_before_any_fit(call, monkeypatch):
    # every group is checked before the groups' stack is fitted
    from censlasso import solvers

    ds = make_problem(300, p=4, seed=3)
    subs = [ds.subset(g) for g in interleaved_split(ds.n, 3).groups]
    weights = [ipcw_weights(sub, fit_censoring_km(sub)) for sub in subs]
    last = subs[-1]
    fitted = []
    real = solvers._fit_path

    def spy(*args, **kwargs):
        fitted.append(len(args[2]))
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "_fit_path", spy)
    loss = LossKind("median")
    config = FitConfig(loss=loss, lam=1.0)

    def fit(datasets, wts):
        if call == "pilot":
            return fit_unpenalized(datasets, wts, loss, config)
        return fit_adaptive_lasso(datasets, wts, config, np.ones((len(datasets), 4)))

    for error, datasets, wts in (
        (DegenerateWeights, subs, weights[:-1] + [make_weights(np.zeros(last.n))]),
        (DimensionMismatch, subs, weights[:-1] + [make_weights(np.ones(last.n + 1))]),
        (DimensionMismatch, subs, weights[:-1]),
        (DimensionMismatch, subs[:-1] + [SurvivalDataset(last.y, last.delta, last.x[:, :3])],
         weights),
    ):
        with pytest.raises(error):
            fit(datasets, wts)
    assert fitted == []
    fit(subs, weights)
    assert len(fitted) == 1


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
    plan = AggregationPlan(K=2, w=1)
    agg = fit_aggregated(ds, plan, config, bic_config=BicConfig())
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


@pytest.mark.parametrize("loss", [LossKind("median"), LossKind("quantile", tau=0.3),
                                  LossKind("composite_quantile", n_levels=3)],
                         ids=["median", "quantile0.3", "composite3"])
def test_fit_aggregated_groups_with_fewer_active_rows_than_p(loss):
    # K = 20 leaves 6 rows per group and censoring removes some, so most
    # groups have no unique pilot; every group must still fit and certify
    ds = make_problem(120, p=6, seed=0)
    plan = AggregationPlan(K=20, w=1)
    active = [int(ipcw_weights(sub, fit_censoring_km(sub)).w.astype(bool).sum())
              for sub in (ds.subset(g) for g in interleaved_split(ds.n, plan.K).groups)]
    assert min(active) < ds.p
    agg = fit_aggregated(ds, plan, FitConfig(loss=loss, lam=1.0))
    assert all(r.kkt_residual <= 1e-9 * ds.n for r in agg.group_results)


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
