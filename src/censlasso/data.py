"""Dataset container, CSV ingestion, and synthetic right-censored data generation.

Observed data are triples (y, delta, x): a positive follow-up time, an event
indicator (1 = failure observed, 0 = censored) and a covariate vector.
Synthetic data follow a log-linear failure-time model with Gumbel errors and
uniform censoring whose upper bound is calibrated to a target censoring rate.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InputError,
    MissingColumn,
    NoConvergence,
    NonBinaryDelta,
    NonFiniteCovariate,
    NonPositiveTime,
    RaggedRow,
)

_CALIBRATION_SAMPLE = 200_000
_CALIBRATION_SEED = 0x5EED_CA1B
_CALIBRATION_TOL = 1e-3
_ROW_BLOCK = 4096  # CSV rows formatted per write: about 5 MB of text at p = 50

ERROR_FAMILIES = ("standard_gumbel",)


class SurvivalDataset:
    """Immutable column-oriented container of n right-censored observations.

    Parameters
    ----------
    y : array of shape (n,), strictly positive follow-up times.
    delta : array of shape (n,), event indicators in {0, 1}.
    x : array of shape (n, p), covariates.
    """

    __slots__ = ("y", "delta", "x")

    def __init__(self, y, delta, x):
        y = np.ascontiguousarray(y, dtype=float)
        delta = np.asarray(delta, dtype=float)  # checked before its int8 cast
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or delta.ndim != 1:
            raise ValueError("y and delta must be 1-d, x must be 2-d")
        if not (len(y) == len(delta) == x.shape[0]):
            raise ValueError("y, delta and x disagree on the number of rows")
        if len(y) < 1:
            raise ValueError("a dataset needs at least one observation")
        if not np.all(np.isfinite(x)):
            raise NonFiniteCovariate("covariates must be finite")
        if np.any(~np.isfinite(y)) or np.any(y <= 0.0):
            raise NonPositiveTime("all follow-up times must be finite and > 0")
        if not np.all((delta == 0.0) | (delta == 1.0)):
            raise NonBinaryDelta("event indicators must be 0 or 1")
        delta = np.ascontiguousarray(delta, dtype=np.int8)
        for a in (y, delta, x):
            a.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "x", x)

    def __setattr__(self, name, value):
        raise AttributeError("SurvivalDataset is immutable")

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.delta.sum())

    def subset(self, indices) -> "SurvivalDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return SurvivalDataset(self.y[idx], self.delta[idx], self.x[idx])

    def __eq__(self, other):
        if not isinstance(other, SurvivalDataset):
            return NotImplemented
        return (
            np.array_equal(self.y, other.y)
            and np.array_equal(self.delta, other.delta)
            and np.array_equal(self.x, other.x)
        )

    def __repr__(self):
        return f"SurvivalDataset(n={self.n}, p={self.p}, events={self.n_events})"


@dataclass(frozen=True)
class GenerationSpec:
    """Design of a synthetic dataset: log-linear model with Gumbel errors.

    The latent log failure time is ``intercept + x @ beta0 + eps`` with
    ``x[j] ~ Normal(design_mean, 1)`` i.i.d. and ``eps`` standard Gumbel
    (max convention, CDF exp(-exp(-t))).  The failure time is its exponential
    and is censored by an independent Uniform[0, c1] variable; ``c1`` is
    calibrated so the expected censoring fraction matches
    ``target_censoring_rate``.
    """

    n: int
    p: int
    beta0: tuple[float, ...]
    intercept: float = 0.0
    design_mean: float = 1.0
    error_family: str = "standard_gumbel"
    target_censoring_rate: float = 0.25
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "beta0", tuple(float(b) for b in self.beta0))
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if len(self.beta0) != self.p:
            raise ValueError(f"beta0 must have length p={self.p}")
        if not 0.0 <= self.target_censoring_rate < 1.0:
            raise ValueError("target_censoring_rate must lie in [0, 1)")
        if self.error_family not in ERROR_FAMILIES:
            raise ValueError(f"unknown error family {self.error_family!r}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    @property
    def active_set(self) -> frozenset[int]:
        """0-based indices of the truly nonzero coefficients."""
        return frozenset(j for j, b in enumerate(self.beta0) if b != 0.0)

    @property
    def beta0_array(self) -> np.ndarray:
        return np.asarray(self.beta0, dtype=float)

    def with_seed(self, seed: int) -> "GenerationSpec":
        return replace(self, seed=int(seed))


@dataclass(frozen=True, eq=False)
class GeneratedLatents:
    """Latent draws behind one synthetic dataset (kept for diagnostics)."""

    log_failure: np.ndarray  # latent log failure times
    errors: np.ndarray       # Gumbel error draws
    failure: np.ndarray      # exp(log_failure)
    censoring: np.ndarray    # censoring times (inf when uncensored design)
    bound: float             # the uniform upper bound c1 actually used


def _sample_gumbel(rng: np.random.Generator, size: int) -> np.ndarray:
    # Inverse transform for the max-Gumbel CDF exp(-exp(-t)); the uniform
    # draw is nudged away from 0 so the transform stays finite.
    u = rng.random(size)
    u[u == 0.0] = np.nextafter(0.0, 1.0)
    return -np.log(-np.log(u))


def generate_with_latents(
    spec: GenerationSpec, bound: float | None = None
) -> tuple[SurvivalDataset, GeneratedLatents]:
    """Generate a dataset together with its latent failure/censoring draws.

    Draw order is fixed (covariates, errors, censoring) so a dataset can be
    reproduced bit-for-bit from its spec.  ``bound`` overrides the calibrated
    censoring bound; ``np.inf`` disables censoring.
    """
    if bound is None:
        if spec.target_censoring_rate == 0.0:
            bound = math.inf
        else:
            bound = calibrate_censoring_bound(spec, spec.target_censoring_rate)
    rng = np.random.default_rng(spec.seed)
    x = rng.normal(spec.design_mean, 1.0, size=(spec.n, spec.p))
    eps = _sample_gumbel(rng, spec.n)
    log_t = spec.intercept + x @ spec.beta0_array + eps
    t = np.exp(log_t)
    if math.isinf(bound):
        c = np.full(spec.n, np.inf)
    else:
        u = rng.random(spec.n)
        u[u == 0.0] = np.nextafter(0.0, 1.0)
        c = bound * u
    y = np.minimum(t, c)
    delta = (t <= c).astype(np.int8)
    dataset = SurvivalDataset(y, delta, x)
    latents = GeneratedLatents(
        log_failure=log_t, errors=eps, failure=t, censoring=c, bound=float(bound)
    )
    return dataset, latents


def generate_dataset(spec: GenerationSpec, bound: float | None = None) -> SurvivalDataset:
    """Generate a synthetic right-censored dataset; deterministic in the seed."""
    dataset, _ = generate_with_latents(spec, bound=bound)
    return dataset


@functools.lru_cache(maxsize=64)
def _calibration_failures(spec_key) -> np.ndarray:
    """Failure-time draws used by the bound calibration, fixed internal seed."""
    p, beta0, intercept, design_mean = spec_key
    rng = np.random.default_rng(_CALIBRATION_SEED)
    x = rng.normal(design_mean, 1.0, size=(_CALIBRATION_SAMPLE, p))
    eps = _sample_gumbel(rng, _CALIBRATION_SAMPLE)
    return np.exp(intercept + x @ np.asarray(beta0) + eps)


def censoring_rate_at(spec: GenerationSpec, bound: float) -> float:
    """Monte Carlo censoring fraction P(C < T) for C ~ Uniform[0, bound].

    Uses the exact conditional probability min(T/bound, 1) on a large fixed
    calibration sample, so the map bound -> rate is smooth and decreasing.
    """
    if bound <= 0.0:
        return 1.0
    t = _calibration_failures(
        (spec.p, spec.beta0, spec.intercept, spec.design_mean)
    )
    return float(np.mean(np.minimum(t / bound, 1.0)))


def calibrate_censoring_bound(
    spec: GenerationSpec, target_rate: float, tol: float = _CALIBRATION_TOL
) -> float:
    """Find the uniform censoring bound c1 whose censoring rate hits the target.

    Bisection on the (monotone non-increasing) calibration rate; raises
    NoConvergence if no bracket can be established.
    """
    if not 0.0 < target_rate < 1.0:
        raise ValueError("target_rate must lie strictly inside (0, 1)")
    lo = 1e-12
    hi = 1.0
    for _ in range(200):
        if censoring_rate_at(spec, hi) < target_rate:
            break
        hi *= 2.0
    else:
        raise NoConvergence("could not bracket the censoring bound from above")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        rate = censoring_rate_at(spec, mid)
        if abs(rate - target_rate) <= tol:
            return mid
        if rate > target_rate:
            lo = mid
        else:
            hi = mid
    raise NoConvergence("bisection on the censoring bound did not converge")


def load_csv(path) -> SurvivalDataset:
    """Read a dataset from CSV with header ``y,delta,x1,...,xp``.

    The rows go through numpy's C parser.  Whatever it rejects, or any
    table that `SurvivalDataset` rejects, is read again by the row parser,
    which accepts the rest of Python's float syntax and names ``path:line``
    in its errors; an input that cannot be read twice (a pipe) goes to the
    row parser alone.  A file that is not UTF-8 text is an input error.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            p = _read_header(reader, path)
            if fh.seekable():
                table = _load_table(fh, p)
                if table is not None:
                    try:
                        return SurvivalDataset(table[:, 0], table[:, 1], table[:, 2:])
                    except InputError:
                        pass  # the row parser names the offending line
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)  # the header, checked above
            return _parse_rows(reader, path, p)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_header(reader, path) -> int:
    """Consume and check the header row; the number p of covariates."""
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn(f"{path}: empty file, expected a header row") from None
    header = [h.strip() for h in header]
    for required in ("y", "delta"):
        if required not in header:
            raise MissingColumn(f"{path}: missing required column {required!r}")
    p = len(header) - 2
    expected = ["y", "delta"] + [f"x{j}" for j in range(1, p + 1)]
    if header != expected or p < 1:
        raise MissingColumn(
            f"{path}: header must be y,delta,x1,...,xp; got {','.join(header)}"
        )
    return p


def _load_table(fh, p) -> np.ndarray | None:
    """The rest of fh as an (n, p + 2) array, or None if a row parse is needed."""
    try:
        with warnings.catch_warnings():
            # a file without data rows is reported by the row parser
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if table.shape[0] < 1 or table.shape[1] != p + 2:
        return None
    return table


def _parse_rows(reader, path, p) -> SurvivalDataset:
    """Row-by-row parse of the data rows; each error names its path:line,
    the physical line its record starts on (a quoted field can hold a
    newline)."""
    ys, deltas, rows, linenos = [], [], [], []
    start = reader.line_num + 1
    for row in reader:
        lineno, start = start, reader.line_num + 1
        if not row:
            continue
        if len(row) != p + 2:
            raise RaggedRow(
                f"{path}:{lineno}: expected {p + 2} fields, found {len(row)}"
            )
        try:
            y = float(row[0])
            d = float(row[1])
            xs = [float(v) for v in row[2:]]
        except ValueError as exc:
            raise RaggedRow(f"{path}:{lineno}: unparseable number: {exc}") from None
        if d not in (0.0, 1.0):
            raise NonBinaryDelta(f"{path}:{lineno}: delta={row[1]} is not 0 or 1")
        if not 0.0 < y < math.inf:
            raise NonPositiveTime(f"{path}:{lineno}: y={row[0]} must be finite and > 0")
        ys.append(y)
        deltas.append(int(d))
        rows.append(xs)
        linenos.append(lineno)
    if not ys:
        raise RaggedRow(f"{path}: no data rows")
    x = np.array(rows)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise NonFiniteCovariate(f"{path}:{lineno}: covariates must be finite")
    return SurvivalDataset(np.array(ys), np.array(deltas), x)


def write_rows(fh, row_format, *columns) -> None:
    """Write the rows of the column-stacked arrays, each through row_format."""
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        block = np.column_stack([c[start:start + _ROW_BLOCK] for c in columns])
        fh.write("".join([row_format % tuple(row) for row in block.tolist()]))


def write_csv(dataset: SurvivalDataset, path) -> None:
    """Write a dataset as CSV; floats carry 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = ["y", "delta"] + [f"x{j}" for j in range(1, dataset.p + 1)]
        fh.write(",".join(header) + "\n")
        row_format = "%.17g,%d," + ",".join(["%.17g"] * dataset.p) + "\n"
        write_rows(fh, row_format, dataset.y, dataset.delta, dataset.x)
