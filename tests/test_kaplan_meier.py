import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censlasso.data import GenerationSpec, generate_dataset
from censlasso.errors import DegenerateWeights
from censlasso.kaplan_meier import fit_censoring_km, ipcw_weights

from helpers import naive_censoring_km, small_dataset, textbook_censoring_km


def test_all_events_curve_is_one():
    ds = small_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], np.ones((4, 1)))
    curve = fit_censoring_km(ds)
    for t in [0.0, 1.0, 2.5, 4.0, 10.0]:
        assert curve.evaluate(t) == 1.0


def test_three_point_hand_example():
    ds = small_dataset([1.0, 2.0, 3.0], [1, 0, 1], np.ones((3, 1)))
    curve = fit_censoring_km(ds)
    assert curve.evaluate(1.999) == 1.0
    assert curve.evaluate(2.0) == 0.5  # (3-2)/(3-2+1), right-continuous
    assert curve.evaluate(5.0) == 0.5


def test_five_point_mixed_matches_oracle_exactly():
    y = [2.0, 1.0, 2.0, 3.0, 5.0]
    delta = [0, 1, 1, 0, 1]
    ds = small_dataset(y, delta, np.ones((5, 1)))
    curve = fit_censoring_km(ds)
    for t in [0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 9.0]:
        assert curve.evaluate(t) == naive_censoring_km(y, delta, t)


def test_random_small_datasets_match_oracle_exactly():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        # integer times force ties
        y = rng.integers(1, 6, size=n).astype(float)
        delta = rng.integers(0, 2, size=n)
        if delta.sum() == 0:
            delta[rng.integers(0, n)] = 1
        ds = small_dataset(y, delta, np.ones((n, 1)))
        curve = fit_censoring_km(ds)
        for t in np.unique(np.concatenate([y, y - 0.5, y + 0.5, [0.0]])):
            assert curve.evaluate(t) == naive_censoring_km(y, delta, t)


def test_no_ties_matches_textbook_formula_exactly():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        y = np.sort(rng.random(n)) + 0.1  # distinct almost surely
        delta = rng.integers(0, 2, size=n)
        delta[0] = 1
        ds = small_dataset(y, delta, np.ones((n, 1)))
        curve = fit_censoring_km(ds)
        for t in np.concatenate([y, [0.05, 2.0]]):
            assert curve.evaluate(t) == textbook_censoring_km(y, delta, t)


def test_evaluate_step_conventions():
    ds = small_dataset([1.0, 2.0, 3.0], [1, 0, 1], np.ones((3, 1)))
    curve = fit_censoring_km(ds)
    assert curve.evaluate(0.0) == 1.0          # before the first jump
    assert curve.evaluate(2.0) == 0.5          # right-continuous at the jump
    assert curve.evaluate(100.0) == 0.5        # constant beyond the last jump
    vals = curve.evaluate(np.array([0.0, 2.0, 100.0]))
    assert np.array_equal(vals, [1.0, 0.5, 0.5])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 8), st.integers(0, 1)), min_size=1, max_size=40
    ).filter(lambda rows: any(d for _, d in rows))
)
def test_curve_monotone_in_unit_interval(rows):
    y = np.array([float(t) for t, _ in rows])
    delta = np.array([d for _, d in rows])
    curve = fit_censoring_km(small_dataset(y, delta, np.ones((len(y), 1))))
    assert np.all(np.diff(curve.values) <= 0)
    assert np.all((curve.values >= 0.0) & (curve.values <= 1.0))
    assert np.all(np.diff(curve.jump_times) > 0)


def test_ipcw_zero_for_censored_unit_for_early_events():
    ds = small_dataset([1.0, 2.0, 3.0], [1, 0, 1], np.ones((3, 1)))
    curve = fit_censoring_km(ds)
    w = ipcw_weights(ds, curve)
    assert w.w[1] == 0.0            # censored
    assert w.w[0] == 1.0            # event before any censoring: G = 1
    assert w.w[2] == 2.0            # event after the 1/2 drop
    assert np.all(w.w[ds.delta == 1] >= 1.0)


def test_ipcw_floor_applies():
    # eleven censorings then one event: G at the last event is 1/12
    y = list(np.arange(1.0, 12.0)) + [12.0]
    delta = [0] * 11 + [1]
    ds = small_dataset(y, delta, np.ones((12, 1)))
    curve = fit_censoring_km(ds)
    assert curve.evaluate(12.0) == pytest.approx(1.0 / 12.0)
    w = ipcw_weights(ds, curve, floor=0.2)
    assert w.w[-1] == pytest.approx(1.0 / 0.2)


def test_ipcw_default_floor_is_one_over_n():
    ds = small_dataset([1.0, 2.0], [1, 1], np.ones((2, 1)))
    w = ipcw_weights(ds, fit_censoring_km(ds))
    assert w.floor_used == 0.5


def test_ipcw_degenerate_all_censored():
    ds = small_dataset([1.0, 2.0], [0, 0], np.ones((2, 1)))
    curve = fit_censoring_km(ds)
    with pytest.raises(DegenerateWeights):
        ipcw_weights(ds, curve)


def test_weights_identity_mean_event_fraction():
    spec = GenerationSpec(n=2000, p=3, beta0=(1.0, -1.0, 0.0), seed=21)
    ds = generate_dataset(spec, bound=6.0)
    curve = fit_censoring_km(ds)
    w = ipcw_weights(ds, curve, floor=1e-12)  # floor small enough to never bind
    g = curve.evaluate(ds.y)
    assert np.mean(w.w * g) == pytest.approx(ds.delta.mean(), abs=1e-12)


def test_curve_csv_export(tmp_path):
    ds = small_dataset([1.0, 2.0, 3.0], [1, 0, 1], np.ones((3, 1)))
    path = tmp_path / "curve.csv"
    fit_censoring_km(ds).to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,survival"
    assert lines[1] == "0,1"
    assert lines[2] == "2,0.5"


def test_curve_csv_format_is_pinned(tmp_path):
    ds = small_dataset([0.1, 1e-300, 2.5, 7.0, 9.0], [0, 0, 1, 0, 1], np.ones((5, 1)))
    path = tmp_path / "curve.csv"
    fit_censoring_km(ds).to_csv(path)
    assert path.read_bytes() == (
        b"time,survival\n0,1\n1e-300,0.80000000000000004\n"
        b"0.10000000000000001,0.60000000000000009\n7,0.30000000000000004\n"
    )
