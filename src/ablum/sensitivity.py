"""Variance-based global sensitivity analysis on the model's parameters.

Builds Saltelli cross-sampling designs from a scrambled Sobol' base sequence
and estimates first-order, total-effect, and optional second-order Sobol
indices with bootstrap confidence half-widths.

The base sequence is a numpy Sobol' sampler: Joe & Kuo's direction numbers
(new-joe-kuo-6.21201, S. Joe and F. Y. Kuo, SIAM J. Sci. Comput. 30:2635,
2008) for the first 32 dimensions, 30 bits, and Matousek's LMS+shift scramble
(a random lower-triangular binary matrix and a random digital shift per
dimension). It gives the same bits as scipy.stats.qmc.Sobol(scramble=True),
which the tests check. A design draws two columns per parameter, so it takes
at most 16 parameters.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ExperimentConfig, apply_values, round_half_up
from .errors import ConfigurationError, DegenerateVarianceError

_KINDS = ("continuous", "integer")
N_BOOT = 100  # bootstrap resamples behind each confidence half-width

# Joe-Kuo dimensions 2-32: (primitive polynomial, leading and constant terms
# included, so its degree is bit_length - 1; initial direction integers m).
# Every direction number of dimension 1 is 1.
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)), (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)), (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)), (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)), (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)), (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)), (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)), (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)), (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)), (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)), (229, (1, 3, 1, 3, 5, 53, 69)),
)
_SOBOL_DIMS = 1 + len(_JOE_KUO)
_BITS = 30  # bits per coordinate; a sequence has at most 2**30 points


@dataclass(frozen=True)
class ParameterDim:
    name: str
    lower: float
    upper: float
    kind: str = "continuous"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"parameter kind must be one of {_KINDS}")
        if not self.lower < self.upper:
            raise ConfigurationError(f"parameter {self.name}: lower must be < upper")


@dataclass(frozen=True)
class ParameterSpace:
    dims: tuple[ParameterDim, ...]

    def __post_init__(self):
        if not self.dims:
            raise ConfigurationError("parameter space needs at least one dimension")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise ConfigurationError("parameter names must be unique")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)


def default_parameter_space() -> ParameterSpace:
    """The nine standard uncertain inputs and their sampling ranges."""
    return ParameterSpace(
        (
            ParameterDim("attitude_mean", -1.0, 1.0),
            ParameterDim("norm_weight_w", 0.0, 1.0),
            ParameterDim("inertia_lambda", 0.0, 0.5),
            ParameterDim("cm_int", 0.1, 0.8),
            ParameterDim("cm_ext", 0.1, 0.8),
            ParameterDim("demand_mat", 3000.0, 5000.0),
            ParameterDim("demand_nm", 3000.0, 5000.0),
            ParameterDim("moore_radius", 1, 5, kind="integer"),
            ParameterDim("n_tele", 0, 2500, kind="integer"),
        )
    )


@dataclass(frozen=True)
class SaltelliDesign:
    """Cross-sampling design in block order A, AB_0..AB_d-1[, BA_0..], B."""

    space: ParameterSpace
    n_base: int
    second_order: bool
    matrix: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    def base_index(self, row: int) -> int:
        """Base-sample index shared by a row across all blocks."""
        return row % self.n_base

    def blocks(self, outputs: np.ndarray):
        """Split a per-row output vector into (fA, fB, fAB, fBA)."""
        outputs = np.asarray(outputs, dtype=np.float64)
        if outputs.shape != (self.n_rows,):
            raise ConfigurationError(f"outputs must have shape ({self.n_rows},)")
        n, d = self.n_base, self.space.d
        f_ab = outputs[n : n * (1 + d)].reshape(d, n).T
        f_ba = outputs[n * (1 + d) : n * (1 + 2 * d)].reshape(d, n).T if self.second_order else None
        return outputs[:n], outputs[-n:], f_ab, f_ba


def _direction_numbers(dims: int) -> np.ndarray:
    """(dims, 30) uint32 direction numbers, column j scaled by 2**(29 - j)."""
    v = np.ones((dims, _BITS), dtype=np.uint32)
    for row, (poly, m_init) in zip(v[1:], _JOE_KUO):
        s = len(m_init)
        m = list(m_init)
        for j in range(s, _BITS):  # Bratley & Fox's recurrence
            new = m[j - s]
            for k in range(1, s + 1):
                if poly >> (s - k) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        row[:] = m
    return v << np.arange(_BITS - 1, -1, -1, dtype=np.uint32)


def _scrambled_sobol(dims: int, n: int, seed: np.random.SeedSequence) -> np.ndarray:
    """The first n points of a (dims)-dimensional LMS+shift scrambled Sobol'
    sequence: the bits of qmc.Sobol(dims, scramble=True,
    seed=np.random.default_rng(seed)).random(n), without spawning from seed.
    """
    # qmc.Sobol draws from a child of the generator's seed sequence.
    child = np.random.SeedSequence(
        seed.entropy,
        spawn_key=seed.spawn_key + (seed.n_children_spawned,),
        pool_size=seed.pool_size,
    )
    rng = np.random.Generator(np.random.PCG64(child))
    weights = np.uint32(1) << np.arange(_BITS, dtype=np.uint32)
    shift = rng.integers(2, size=(dims, _BITS), dtype=np.uint32) @ weights
    ltm = np.tril(rng.integers(2, size=(dims, _BITS, _BITS), dtype=np.uint32))
    ltm[:, range(_BITS), range(_BITS)] = 1
    # LMS: row p of ltm gives bit 29 - p of each scrambled direction number,
    # as the GF(2) product with that number's bits, most significant first.
    msb_first = weights[::-1]
    bits = ((_direction_numbers(dims)[:, :, None] & msb_first) != 0).astype(np.uint32)
    v = (bits @ ltm.transpose(0, 2, 1) & 1) @ msb_first
    # Gray-code order: point i + 1 flips the direction column of i's lowest zero bit.
    i = np.arange(n - 1)
    low_zero = np.frexp(~i & (i + 1))[1] - 1
    points = np.bitwise_xor.accumulate(v[:, low_zero].T, axis=0) ^ shift
    return np.vstack([shift, points]) * 2.0**-_BITS


def saltelli_sample(
    space: ParameterSpace,
    n_base: int,
    seed: int | np.random.SeedSequence = 0,
    second_order: bool = False,
) -> SaltelliDesign:
    """Saltelli design with n_base * (2d + 2) rows (d + 2 without 2nd order).

    The base points are an LMS+shift scrambled Sobol' sequence over Joe-Kuo
    direction numbers in 2d dimensions, so a space takes at most 16
    parameters and n_base at most 2**30. Powers of two for n_base preserve
    the sequence's balance properties; other sizes warn. A SeedSequence seed
    is read, not spawned from, so the same one gives the same design again.
    """
    if not isinstance(n_base, numbers.Integral):
        raise ConfigurationError(f"n_base must be an integer, got {n_base!r}")
    if not 1 <= n_base <= 2**_BITS:
        raise ConfigurationError(f"n_base must be between 1 and 2**{_BITS}")
    d = space.d
    if 2 * d > _SOBOL_DIMS:
        raise ConfigurationError(
            f"a Saltelli design takes at most {_SOBOL_DIMS // 2} parameters, got {d}"
        )
    if n_base & (n_base - 1):
        warnings.warn(
            "The balance properties of Sobol' points require n to be a power of 2.",
            stacklevel=2,
        )
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    unit = _scrambled_sobol(2 * d, n_base, seed)
    lower = np.array([dim.lower for dim in space.dims])
    upper = np.array([dim.upper for dim in space.dims])
    a = lower + unit[:, :d] * (upper - lower)
    b = lower + unit[:, d:] * (upper - lower)

    blocks = [a]
    for i in range(d):
        ab = a.copy()
        ab[:, i] = b[:, i]
        blocks.append(ab)
    if second_order:
        for i in range(d):
            ba = b.copy()
            ba[:, i] = a[:, i]
            blocks.append(ba)
    blocks.append(b)
    return SaltelliDesign(
        space=space, n_base=n_base, second_order=second_order, matrix=np.vstack(blocks)
    )


@dataclass(frozen=True)
class SobolIndices:
    names: tuple[str, ...]
    s1: np.ndarray
    s1_conf: np.ndarray
    st: np.ndarray
    st_conf: np.ndarray
    s2: np.ndarray | None = None
    s2_conf: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "S1": {n: float(v) for n, v in zip(self.names, self.s1)},
            "ST": {n: float(v) for n, v in zip(self.names, self.st)},
            "conf": {
                "S1": {n: float(v) for n, v in zip(self.names, self.s1_conf)},
                "ST": {n: float(v) for n, v in zip(self.names, self.st_conf)},
            },
        }
        if self.s2 is not None:
            pairs = {}
            confs = {}
            d = len(self.names)
            for i in range(d):
                for j in range(i + 1, d):
                    key = f"{self.names[i]}|{self.names[j]}"
                    pairs[key] = float(self.s2[i, j])
                    confs[key] = float(self.s2_conf[i, j])
            out["S2"] = pairs
            out["conf"]["S2"] = confs
        return out


def _by_dim(f: np.ndarray, resamples: np.ndarray) -> np.ndarray:
    """An (n, d) block resampled into a C-contiguous (R, d, n) array."""
    return np.ascontiguousarray(f[resamples].transpose(0, 2, 1))


def _index_estimates(f_a, f_b, f_ab, f_ba, resamples: np.ndarray):
    """Estimates for each row of ``resamples``, an (R, n) array of base-sample
    indices: variance (R,), S1 and ST (R, d), and S2 (R, d(d-1)/2) for the
    pairs i < j in np.triu_indices order, or None. A resample whose outputs
    have no variance gets NaN for the variance and every index.

    Every mean and variance reduces over the last, contiguous axis, so each
    row matches the 1-D np.mean/np.var of that resample bit for bit.
    """
    a, b = f_a[resamples][:, None], f_b[resamples][:, None]
    ab = _by_dim(f_ab, resamples)
    variance = np.var(np.concatenate([a, b], axis=-1), axis=-1)
    variance[~(np.isfinite(variance) & (variance > 0))] = np.nan
    s1 = np.mean(b * (ab - a), axis=-1) / variance
    st = 0.5 * np.mean((a - ab) ** 2, axis=-1) / variance
    s2 = None
    if f_ba is not None:
        # pairs (i, j > i) one i at a time, in np.triu_indices order
        ba, a_b, d = _by_dim(f_ba, resamples), a * b, f_ab.shape[1]
        v = [np.mean(ba[:, i, None] * ab[:, i + 1 :] - a_b, axis=-1) for i in range(d)]
        iu, ju = np.triu_indices(d, k=1)
        s2 = np.concatenate(v, axis=1) / variance - s1[:, iu] - s1[:, ju]
    return variance[:, 0], s1, st, s2


def sobol_indices(
    design: SaltelliDesign,
    outputs: np.ndarray,
    seed: int | np.random.SeedSequence = 0,
) -> SobolIndices:
    """Sobol indices for one output vector evaluated on the design's rows.

    Confidence half-widths are 1.96 times the standard deviation over
    N_BOOT bootstrap resamples of the base indices; a resample whose outputs
    have no variance contributes NaN, which the deviation skips.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    centred = outputs - outputs.mean()
    blocks = design.blocks(centred)
    d = design.space.d
    n = design.n_base
    variance, s1, st, s2 = _index_estimates(*blocks, np.arange(n)[None])
    if np.isnan(variance[0]):
        raise DegenerateVarianceError("outputs have no variance; indices are undefined")

    rng = np.random.default_rng(seed)
    _, boot_s1, boot_st, boot_s2 = _index_estimates(*blocks, rng.integers(0, n, (N_BOOT, n)))
    z = 1.96
    s2_full = s2_conf = None
    if s2 is not None:
        # only the upper triangle is estimated; keep the rest NaN
        iu = np.triu_indices(d, k=1)
        s2_full = np.full((d, d), np.nan)
        s2_full[iu] = s2[0]
        s2_conf = np.full((d, d), np.nan)
        # Keep resamples contiguous (Fortran order): the layout sets the
        # order of nanstd's sums, and so the last bits of the half-widths.
        s2_conf[iu] = z * np.nanstd(np.asfortranarray(boot_s2), axis=0)
    return SobolIndices(
        names=design.space.names,
        s1=s1[0],
        s1_conf=z * np.nanstd(boot_s1, axis=0),
        st=st[0],
        st_conf=z * np.nanstd(boot_st, axis=0),
        s2=s2_full,
        s2_conf=s2_conf,
    )


def map_sample_to_config(row: Sequence[float], space: ParameterSpace, base_config):
    """Materialise one design row as a runnable experiment config.

    Integer dimensions are rounded half-up, and the row goes through
    `apply_values`, so a space names sweepable keys only and every other key,
    the stop rule and the grid included, is the base config's.
    """
    if len(row) != space.d:
        raise ConfigurationError(f"row has {len(row)} values for {space.d} dimensions")
    if not isinstance(base_config, ExperimentConfig):
        raise ConfigurationError("base_config must be an ExperimentConfig")
    updates = {}
    for dim, value in zip(space.dims, row):
        v = float(value)
        if not dim.lower <= v <= dim.upper:
            raise ConfigurationError(f"value {v} for {dim.name} is outside its bounds")
        updates[dim.name] = round_half_up(v) if dim.kind == "integer" else v
    return apply_values(base_config, updates)
