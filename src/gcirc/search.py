"""Theorem-pruned enumeration of g-circulant first rows over small
fields, hunting involutory-MDS and semi-involutory/semi-orthogonal-MDS
matrices.

Candidates are indexed by a single integer token over the flattened
(g, row) space: rows enumerate as base-q numerals with c_0 most
significant, g blocks in ascending order. That makes every job
resumable, partitionable, and byte-for-byte deterministic. Every
emitted result is re-verified from scratch with pruning disabled
before it is yielded.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator

from .circulant import GCirculantSpec, build_g_circulant, square_structured
from .errors import ConfigError, ResumeTokenError, SingularMatrixError, SpaceTooLargeError
from .field import GF2m
from .properties import (
    PropertyReport,
    detect_semi_involutory,
    detect_semi_orthogonal,
    full_report,
    involutory_g_filter,
    is_mds,
    left_circulant_involutory_conditions,
)

CANDIDATE_CAP = 1 << 24


class Target(Enum):
    INVOLUTORY_MDS = "INVOLUTORY_MDS"
    SEMI_INVOLUTORY_MDS = "SEMI_INVOLUTORY_MDS"
    SEMI_ORTHOGONAL_MDS = "SEMI_ORTHOGONAL_MDS"
    MDS_ONLY = "MDS_ONLY"


class RowSpaceKind(Enum):
    EXHAUSTIVE = "EXHAUSTIVE"
    RANDOM = "RANDOM"
    CONSTRAINED_LEFT_CIRCULANT = "CONSTRAINED_LEFT_CIRCULANT"


@dataclass(frozen=True)
class RowSpace:
    kind: RowSpaceKind
    count: int | None = None  # RANDOM sample size
    seed: int | None = None  # RANDOM seed

    def __post_init__(self):
        if self.kind is RowSpaceKind.RANDOM:
            if self.count is None or self.count < 0:
                raise ConfigError("RANDOM row space needs a non-negative count")
            seed = 0 if self.seed is None else self.seed
            if not 0 <= seed < 1 << 64:
                raise ConfigError("seed must fit in 64 bits")
            object.__setattr__(self, "seed", seed)
        elif self.count is not None or self.seed is not None:
            raise ConfigError(f"{self.kind.value} row space takes no count/seed")


@dataclass(frozen=True)
class SearchJob:
    """One deterministic search over (g, first row) candidates."""

    ctx: GF2m
    k: int
    target: Target
    row_space: RowSpace
    g_set: tuple[int, ...] | None = None  # default: all g coprime to k, ascending
    resume_token: int | None = None
    stop_token: int | None = None
    pruning: bool = True
    prune_power_of_two: bool = False  # the order-2^d involutory-MDS rule
    debug_recheck: float = 0.0  # fraction of pruned candidates to re-verify

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"order must be >= 1, got {self.k}")
        constrained = self.row_space.kind is RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT
        if self.g_set is None:
            if constrained:
                gs = ((self.k - 1) % self.k,)
            else:
                gs = tuple(g for g in range(self.k) if math.gcd(g, self.k) == 1)
        else:
            gs = tuple(sorted({g % self.k for g in self.g_set}))
            for g in gs:
                if math.gcd(g, self.k) != 1:
                    raise ConfigError(f"g = {g} is not coprime to k = {self.k}")
        if constrained:
            left = (self.k - 1) % self.k
            if gs != (left,):
                raise ConfigError(
                    f"constrained left-circulant rows fix g = k-1 = {left}, got g_set {gs}"
                )
        object.__setattr__(self, "g_set", gs)
        if not 0.0 <= self.debug_recheck <= 1.0:
            raise ConfigError("debug_recheck must be a fraction in [0, 1]")

    # -- candidate space geometry

    def per_g_size(self) -> int:
        q = self.ctx.q
        if self.row_space.kind is RowSpaceKind.EXHAUSTIVE:
            return q**self.k
        if self.row_space.kind is RowSpaceKind.RANDOM:
            return self.row_space.count
        return q ** (self.k - 1)

    def total_candidates(self) -> int:
        return len(self.g_set) * self.per_g_size()

    def window(self) -> tuple[int, int]:
        """The [start, stop) token range this job will actually walk."""
        total = self.total_candidates()
        start = self.resume_token if self.resume_token is not None else 0
        stop = self.stop_token if self.stop_token is not None else total
        if not 0 <= start <= total:
            raise ResumeTokenError(f"resume token {start} outside 0..{total}")
        if not start <= stop <= total:
            raise ResumeTokenError(f"stop token {stop} outside {start}..{total}")
        return start, stop

    def row_at(self, g: int, ordinal: int) -> tuple[int, ...]:
        """The candidate first row for one (g, ordinal) pair."""
        q = self.ctx.q
        kind = self.row_space.kind
        if kind is RowSpaceKind.EXHAUSTIVE:
            return _base_q_digits(ordinal, q, self.k)
        if kind is RowSpaceKind.RANDOM:
            return tuple(
                _hash_entry(self.row_space.seed, ordinal, pos, q) for pos in range(self.k)
            )
        return _constrained_row(ordinal, q, self.k)


@dataclass(frozen=True)
class SearchResult:
    spec: GCirculantSpec
    report: PropertyReport
    ordinal: int
    token: int


def _base_q_digits(value: int, q: int, length: int) -> tuple[int, ...]:
    digits = [0] * length
    for pos in range(length - 1, -1, -1):
        value, digits[pos] = divmod(value, q)
    return tuple(digits)


def _constrained_row(ordinal: int, q: int, k: int) -> tuple[int, ...]:
    """c_1..c_{k-1} are the base-q digits of ordinal; c_0 = 1 + their sum."""
    tail = _base_q_digits(ordinal, q, k - 1)
    c0 = 1
    for c in tail:
        c0 ^= c
    return (c0, *tail)


def _hash_entry(seed: int, ordinal: int, pos: int, q: int) -> int:
    raw = hashlib.blake2b(
        struct.pack("<QQQ", seed, ordinal, pos), digest_size=8
    ).digest()
    return int.from_bytes(raw, "little") & (q - 1)


def _hash_unit(salt: int, token: int) -> float:
    raw = hashlib.blake2b(struct.pack("<QQ", salt, token), digest_size=8).digest()
    return int.from_bytes(raw, "little") / float(1 << 64)


def target_satisfied(report: PropertyReport, target: Target) -> bool:
    if target is Target.INVOLUTORY_MDS:
        return report.involutory and report.mds
    if target is Target.SEMI_INVOLUTORY_MDS:
        return report.semi_involutory is not None and report.mds
    if target is Target.SEMI_ORTHOGONAL_MDS:
        return report.semi_orthogonal is not None and report.mds
    return report.mds


def _fast_qualifies(job: SearchJob, spec: GCirculantSpec) -> bool:
    """Cheap exact filters in ascending cost order; minors run last."""
    row = spec.row
    target = job.target
    if target is Target.INVOLUTORY_MDS:
        if job.prune_power_of_two and spec.k >= 4 and spec.k & (spec.k - 1) == 0:
            return False  # no involutory MDS g-circulant of order 2^d
        if not involutory_g_filter(spec.g, spec.k):
            return False
        if 0 in row:
            return False  # MDS needs every entry nonzero
        _, row2 = square_structured(spec)
        if any(row2[l] != (1 if l == 0 else 0) for l in range(spec.k)):
            return False  # A^2 != I
        return is_mds(build_g_circulant(spec))[0]
    if 0 in row:
        return False
    a = build_g_circulant(spec)
    if target is Target.MDS_ONLY:
        return is_mds(a)[0]
    try:
        pair = (
            detect_semi_involutory(a)
            if target is Target.SEMI_INVOLUTORY_MDS
            else detect_semi_orthogonal(a)
        )
    except SingularMatrixError:
        return False
    if pair is None:
        return False
    return is_mds(a)[0]


def _full_check(job: SearchJob, spec: GCirculantSpec) -> tuple[PropertyReport, bool]:
    report = full_report(build_g_circulant(spec))
    return report, target_satisfied(report, job.target)


def constrained_left_circulant_rows(
    ctx: GF2m, k: int, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Stream the first rows of involutory left-circulant matrices.

    c_1..c_{k-1} run through all base-q numerals, c_0 is forced to
    1 + sum of the rest, and rows failing the vanishing convolution
    sums are dropped before any matrix is built.
    """
    if k < 1:
        raise ConfigError(f"order must be >= 1, got {k}")
    end = ctx.q ** (k - 1) if stop is None else stop
    for ordinal in range(start, end):
        row = _constrained_row(ordinal, ctx.q, k)
        if left_circulant_involutory_conditions(ctx, row):
            yield row


def run_search(
    job: SearchJob, on_progress: Callable[[int], None] | None = None
) -> Iterator[SearchResult]:
    """Walk the job's token window and yield every verified hit.

    Results come out in ascending (g, ordinal) order. With pruning on,
    candidates pass exact cheap filters first and every survivor is
    re-verified through the full unpruned property check before being
    emitted; debug_recheck additionally samples that fraction of the
    rejected candidates and asserts the full check agrees.
    on_progress(token) runs once the token is walked: for a hit, only
    when the consumer asks for the next result, so a consumer that
    must know its place while it handles a hit reads the hit's token.
    """
    start, stop = job.window()
    if stop - start > CANDIDATE_CAP:
        raise SpaceTooLargeError(
            f"{stop - start} candidates exceed the {CANDIDATE_CAP} cap; partition the job"
        )
    per_g = job.per_g_size()
    constrained = job.row_space.kind is RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT
    for token in range(start, stop):
        gi, ordinal = divmod(token, per_g)
        g = job.g_set[gi]
        row = job.row_at(g, ordinal)
        if constrained and not left_circulant_involutory_conditions(job.ctx, row):
            if on_progress is not None:
                on_progress(token)
            continue  # outside the constrained row space, not a candidate
        spec = GCirculantSpec(job.ctx, job.k, g, row)
        if job.pruning:
            if _fast_qualifies(job, spec):
                report, ok = _full_check(job, spec)
                if not ok:
                    raise AssertionError(f"filter accepted a non-{job.target.value} candidate: {spec}")
                yield SearchResult(spec, report, ordinal, token)
            elif job.debug_recheck and _hash_unit(0xDEB06, token) < job.debug_recheck:
                _, ok = _full_check(job, spec)
                if ok:
                    raise AssertionError(f"pruning dropped a qualifying candidate: {spec}")
        else:
            report, ok = _full_check(job, spec)
            if ok:
                yield SearchResult(spec, report, ordinal, token)
        if on_progress is not None:
            on_progress(token)


def job_partition(job: SearchJob, n_parts: int) -> list[SearchJob]:
    """Split the token window into n contiguous sub-jobs.

    Concatenating the sub-jobs' outputs in order reproduces the
    single-job output exactly.
    """
    if n_parts < 1:
        raise ConfigError("need at least one part")
    start, stop = job.window()
    span = stop - start
    cuts = [start + span * i // n_parts for i in range(n_parts + 1)]
    return [
        replace(job, resume_token=a, stop_token=b) for a, b in zip(cuts, cuts[1:])
    ]
