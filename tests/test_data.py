import csv
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from censlasso import data
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
    CensLassoError,
    InputError,
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


def row_parser(path):
    """The row-by-row parser alone: the reference for what load_csv reads."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        return data._parse_rows(reader, path, data._read_header(reader, path))


def outcome(load, path):
    """A load's arrays as raw bits, or its exception's class and message."""
    try:
        ds = load(path)
    except CensLassoError as exc:
        return type(exc), str(exc)
    return (ds.y.view(np.int64).tolist(), ds.delta.tolist(), ds.x.view(np.int64).tolist())


HEADER = "y,delta,x1,x2\n"
ROWS = ["1.5,1,0.25,-3", "2.5,0,1e-3,4", "0.75,1,-0,2.5e10"]


def with_row(row):
    """The clean rows with `row` as the second data row."""
    return HEADER + "".join(r + "\n" for r in ROWS[:1] + [row] + ROWS[1:])


# what a dataset CSV can hold: each must read as the row parser reads it
CSV_CORPUS = {
    "clean": with_row("3,0,1,2"),
    "quoted": with_row('"3",0,"1",2'),
    "underscore": with_row("1_0,0,1,2"),
    "cr-only": with_row("3,0,1,2").replace("\n", "\r"),
    "full-width": with_row("３,0,1,2"),
    "blank-lines": with_row("") + "\n\n",
    "crlf": with_row("3,0,1,2").replace("\n", "\r\n"),
    "mixed-endings": HEADER + "3,0,1,2\r\r\n1,1,2,3\n",
    "spaced-fields": with_row(" 3 , 0 ,1 , 2"),
    "tabbed-fields": with_row("\t3,0,1\t,2"),
    "plus-dot-forms": with_row("+1.,1,.5,-.5e1"),
    "long-digits": with_row("0.1000000000000000055511151231257827021181583404541015625,1,1E+05,2"),
    "subnormal": with_row("5e-324,1,4.9406564584124654e-324,-1e-320"),
    "whitespace-only-line": with_row("   "),
    "hash-line": with_row("# a comment"),
    "trailing-comma": with_row("3,0,1,2,"),
    "empty-field": with_row("3,0,,2"),
    "short-row": with_row("3,0,1"),
    "hex": with_row("0x1p0,0,1,2"),
    "true": with_row("True,0,1,2"),
    "nan-y": with_row("nan,0,1,2"),
    "inf-y": with_row("inf,0,1,2"),
    "infinity-y": with_row("Infinity,0,1,2"),
    "overflow-y": with_row("1e400,0,1,2"),
    "underflow-y": with_row("1e-400,0,1,2"),
    "zero-y": with_row("0,0,1,2"),
    "negative-zero-y": with_row("-0.0,0,1,2"),
    "negative-y": with_row("-1,0,1,2"),
    "nan-x": with_row("3,0,nan,2"),
    "inf-x": with_row("3,0,1,-inf"),
    "delta-1.0": with_row("3,1.0,1,2"),
    "delta-negative-zero": with_row("3,-0,1,2"),
    "delta-2": with_row("3,2,1,2"),
    "delta-nan": with_row("3,nan,1,2"),
    "no-rows": HEADER,
    "only-blank-rows": HEADER + "\n\n",
    "empty": "",
    "bad-header": "y,delta,x2,x1\n1,1,2,3\n",
}


@pytest.mark.parametrize("name", sorted(CSV_CORPUS))
def test_load_csv_reads_as_the_row_parser(tmp_path, name):
    path = tmp_path / "d.csv"
    path.write_bytes(CSV_CORPUS[name].encode("utf-8"))
    assert outcome(load_csv, path) == outcome(row_parser, path)


def test_clean_file_never_reaches_the_row_parser(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_text(with_row("3,0,1,2"))
    monkeypatch.setattr(data, "_parse_rows", None)
    assert load_csv(path).n == 4


def test_fractional_delta_falls_back_to_the_row_parser(tmp_path, monkeypatch):
    # the C parser reads the table; SurvivalDataset rejects its delta, and
    # the row parser then names the line
    tables = []
    load_table = data._load_table

    def recording_load_table(fh, p):
        tables.append(load_table(fh, p))
        return tables[-1]

    monkeypatch.setattr(data, "_load_table", recording_load_table)
    path = tmp_path / "d.csv"
    path.write_text(with_row("3,0.5,1,2"))
    with pytest.raises(NonBinaryDelta) as info:
        load_csv(path)
    assert str(info.value) == f"{path}:3: delta=0.5 is not 0 or 1"
    assert [t.shape for t in tables] == [(4, 4)]


def through_pipe(load, path, text):
    """load(path) with path a named pipe that a thread fills with text."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        return outcome(load, path)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()
        os.unlink(path)


@pytest.mark.parametrize("name", ["clean", "nan-x", "underscore"])
def test_unseekable_input_takes_the_row_parser(tmp_path, name):
    # a pipe cannot be read twice, so it goes straight to the row parser
    path = tmp_path / "pipe"
    got = through_pipe(load_csv, path, CSV_CORPUS[name])
    assert got == through_pipe(row_parser, path, CSV_CORPUS[name])


@pytest.mark.parametrize("row, error", [
    ("3,0,1", RaggedRow),
    ("3,2,1,2", NonBinaryDelta),
    ("-3,0,1,2", NonPositiveTime),
    ("3,0,nan,2", NonFiniteCovariate),
])
def test_load_csv_names_a_deep_bad_line(tmp_path, row, error):
    # line 1 is the header, so line 5000 holds data row 4999
    rows = ["1.5,1,0.25,-3"] * 5999
    rows[4998] = row
    path = tmp_path / "d.csv"
    path.write_text(HEADER + "\n".join(rows) + "\n")
    with pytest.raises(error) as info:
        load_csv(path)
    assert str(info.value).startswith(f"{path}:5000: ")


@pytest.mark.parametrize("name", ["inf-y", "infinity-y", "overflow-y"])
def test_load_csv_names_the_line_of_an_infinite_y(tmp_path, name):
    # the corpus puts the bad row second: line 3
    path = tmp_path / "d.csv"
    path.write_bytes(CSV_CORPUS[name].encode("utf-8"))
    with pytest.raises(NonPositiveTime) as info:
        load_csv(path)
    assert str(info.value).startswith(f"{path}:3: ")


def test_load_csv_names_the_physical_line_after_a_quoted_newline(tmp_path):
    # the first record spans lines 2 and 3, so the nan is on line 4
    path = tmp_path / "d.csv"
    path.write_text('y,delta,x1\n"1.5\n",1,2\n2,1,nan\n')
    with pytest.raises(NonFiniteCovariate) as info:
        load_csv(path)
    assert str(info.value).startswith(f"{path}:4: ")


def test_load_csv_names_a_file_that_is_not_utf8(tmp_path):
    # a Latin-1 byte in a data row: an input error (exit 2) naming the
    # file, not the ValueError that UnicodeDecodeError also is
    path = tmp_path / "d.csv"
    path.write_bytes(b"y,delta,x1\n1.5,1,2\n2.5,0,caf\xe9\n")
    with pytest.raises(InputError) as info:
        load_csv(path)
    assert info.value.exit_code == 2
    assert str(info.value).startswith(f"{path}: not UTF-8 text")


def test_write_csv_format_is_pinned(tmp_path):
    ds = SurvivalDataset(
        y=np.array([0.1, 1e-300, 2**53 + 1.0]),
        delta=np.array([1, 0, 1]),
        x=np.array([[2**53 + 1.0, -0.0], [0.1, 5e-324], [-1e308, 1e-300]]),
    )
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    assert path.read_bytes() == (
        b"y,delta,x1,x2\n"
        b"0.10000000000000001,1,9007199254740992,-0\n"
        b"1e-300,0,0.10000000000000001,4.9406564584124654e-324\n"
        b"9007199254740992,1,-1e+308,1e-300\n"
    )


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 20), p=st.integers(1, 4), data_=st.data())
def test_csv_roundtrip_is_bit_exact(tmp_path_factory, n, p, data_):
    y = data_.draw(arrays(float, n, elements=st.floats(min_value=5e-324, allow_infinity=False)))
    delta = data_.draw(arrays(np.int8, n, elements=st.integers(0, 1)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    awkward = st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308])
    x = data_.draw(arrays(float, (n, p), elements=finite | awkward))
    ds = SurvivalDataset(y, delta, x)
    path = tmp_path_factory.mktemp("roundtrip") / "d.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.y.view(np.int64), ds.y.view(np.int64))
    assert np.array_equal(back.delta, ds.delta)
    assert np.array_equal(back.x.view(np.int64), ds.x.view(np.int64))


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


@pytest.mark.parametrize("delta", [0.5, 1.7, -0.5, np.nan, np.inf])
def test_dataset_checks_delta_before_its_int8_cast(delta):
    # a cast first would store 0.5 and -0.5 as 0 and 1.7 as 1
    with pytest.raises(NonBinaryDelta):
        SurvivalDataset(np.array([1.0, 2.0]), np.array([delta, 1.0]), np.ones((2, 1)))


def test_dataset_stores_a_binary_delta_as_int8():
    for delta in ([0.0, 1.0], [False, True], np.array([0, 1], dtype=np.int64)):
        ds = SurvivalDataset(np.array([1.0, 2.0]), delta, np.ones((2, 1)))
        assert ds.delta.dtype == np.int8 and ds.delta.tolist() == [0, 1]


def test_dataset_immutable():
    ds = generate_dataset(paper_spec(20), bound=math.inf)
    with pytest.raises((ValueError, AttributeError)):
        ds.y[0] = 5.0
    with pytest.raises(AttributeError):
        ds.y = np.ones(20)
