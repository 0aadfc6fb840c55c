import math

import numpy as np
import pytest

from censlasso.data import (
    GenerationSpec,
    SurvivalDataset,
    calibrate_censoring_bound,
    censoring_rate_at,
    generate_dataset,
    generate_with_latents,
    load_csv,
    write_csv,
)
from censlasso.errors import (
    MissingColumn,
    NonBinaryDelta,
    NonFiniteCovariate,
    NonPositiveTime,
    RaggedRow,
)

from helpers import gumbel_censoring_rate

PAPER_BETA = (1.0, -2.0) + (0.0,) * 8


def paper_spec(n, seed=0, **kwargs):
    return GenerationSpec(n=n, p=10, beta0=PAPER_BETA, seed=seed, **kwargs)


# --- CSV ingestion ----------------------------------------------------------

def test_load_csv_well_formed(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,delta,x1,x2\n1.5,1,0.2,-0.3\n2.0,0,1.0,0.5\n0.7,1,-1.2,2.25\n")
    ds = load_csv(path)
    assert ds.n == 3 and ds.p == 2
    assert np.allclose(ds.y, [1.5, 2.0, 0.7])
    assert list(ds.delta) == [1, 0, 1]
    assert np.allclose(ds.x[2], [-1.2, 2.25])


def test_load_csv_nonbinary_delta(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,delta,x1\n1.0,2,0.5\n")
    with pytest.raises(NonBinaryDelta):
        load_csv(path)


def test_load_csv_nonpositive_time(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,delta,x1\n0.0,1,0.5\n")
    with pytest.raises(NonPositiveTime):
        load_csv(path)


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x1\n1.0,0.5\n")
    with pytest.raises(MissingColumn):
        load_csv(path)


def test_load_csv_bad_header_order(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("delta,y,x1\n1,1.0,0.5\n")
    with pytest.raises(MissingColumn):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,delta,x1,x2\n1.0,1,0.5\n")
    with pytest.raises(RaggedRow):
        load_csv(path)


def test_csv_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(42)
    ds = SurvivalDataset(
        y=np.exp(rng.normal(size=37)),
        delta=rng.integers(0, 2, size=37),
        x=rng.normal(size=(37, 4)) * np.pi,
    )
    path = tmp_path / "round.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.delta, ds.delta)
    assert np.array_equal(back.x, ds.x)


# --- generation -------------------------------------------------------------

def test_generate_uncensored_with_infinite_bound():
    ds = generate_dataset(paper_spec(500), bound=math.inf)
    assert ds.delta.sum() == 500


def test_generate_zero_target_rate_means_no_censoring():
    ds = generate_dataset(paper_spec(200, target_censoring_rate=0.0))
    assert ds.delta.sum() == 200


def test_generate_deterministic_in_seed():
    a = generate_dataset(paper_spec(300, seed=7), bound=9.0)
    b = generate_dataset(paper_spec(300, seed=7), bound=9.0)
    assert a == b
    c = generate_dataset(paper_spec(300, seed=8), bound=9.0)
    assert not np.array_equal(a.y, c.y)


def test_generate_paper_defaults_censoring_rate():
    spec = paper_spec(10_000, seed=3)
    ds = generate_dataset(spec)
    rate = 1.0 - ds.delta.mean()
    assert 0.23 <= rate <= 0.27


def test_latents_reproduce_indicator():
    spec = paper_spec(800, seed=5)
    ds, lat = generate_with_latents(spec, bound=7.5)
    again, lat2 = generate_with_latents(spec, bound=7.5)
    assert np.array_equal(lat.failure, lat2.failure)
    assert np.array_equal(lat.censoring, lat2.censoring)
    assert np.array_equal(ds.delta == 1, lat.failure <= lat.censoring)
    assert np.allclose(ds.y, np.minimum(lat.failure, lat.censoring))
    assert np.allclose(lat.failure, np.exp(lat.log_failure))


def test_censoring_fraction_monotone_in_bound():
    spec = paper_spec(4000, seed=9)
    fractions = []
    for c1 in [1.0, 2.0, 4.0, 8.0, 16.0, 64.0]:
        ds = generate_dataset(spec, bound=c1)
        fractions.append(1.0 - ds.delta.mean())
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))


# --- calibration ------------------------------------------------------------

def test_calibration_rate_monotone_in_bound():
    spec = paper_spec(10)
    rates = [censoring_rate_at(spec, c) for c in [0.5, 1, 2, 4, 8, 32, 128]]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_calibrate_intercept_only_matches_quadrature():
    # T = exp(eps): a pure-Gumbel failure time via a zero coefficient
    spec = GenerationSpec(n=10, p=1, beta0=(0.0,), design_mean=0.0,
                          target_censoring_rate=0.25, seed=0)
    c1 = calibrate_censoring_bound(spec, 0.25)
    # quadrature oracle: the censoring probability at the calibrated bound
    # must sit within 1e-2 of the target
    assert abs(gumbel_censoring_rate(c1) - 0.25) <= 1e-2


def test_calibrate_then_generate_large_sample():
    spec = paper_spec(100_000, seed=17)
    c1 = calibrate_censoring_bound(spec, 0.25)
    ds = generate_dataset(spec, bound=c1)
    rate = 1.0 - ds.delta.mean()
    assert 0.23 <= rate <= 0.27


def test_calibrate_rejects_bad_target():
    with pytest.raises(ValueError):
        calibrate_censoring_bound(paper_spec(10), 0.0)
    with pytest.raises(ValueError):
        calibrate_censoring_bound(paper_spec(10), 1.0)


# --- spec validation --------------------------------------------------------

def test_generation_spec_active_set_derived():
    spec = GenerationSpec(n=10, p=4, beta0=(1.0, 0.0, -2.0, 0.0))
    assert spec.active_set == {0, 2}


def test_generation_spec_validation():
    with pytest.raises(ValueError):
        GenerationSpec(n=10, p=3, beta0=(1.0,))
    with pytest.raises(ValueError):
        GenerationSpec(n=10, p=1, beta0=(1.0,), target_censoring_rate=1.0)
    with pytest.raises(ValueError):
        GenerationSpec(n=10, p=1, beta0=(1.0,), error_family="cauchy")


def test_dataset_validation():
    with pytest.raises(NonPositiveTime):
        SurvivalDataset(np.array([1.0, -1.0]), np.array([1, 0]), np.ones((2, 1)))
    with pytest.raises(NonBinaryDelta):
        SurvivalDataset(np.array([1.0, 1.0]), np.array([1, 2]), np.ones((2, 1)))
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteCovariate):
            SurvivalDataset(np.array([1.0, 2.0]), np.array([1, 0]), np.array([[0.5], [bad]]))


def test_dataset_immutable():
    ds = generate_dataset(paper_spec(20), bound=math.inf)
    with pytest.raises((ValueError, AttributeError)):
        ds.y[0] = 5.0
    with pytest.raises(AttributeError):
        ds.y = np.ones(20)
