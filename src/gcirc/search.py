"""Theorem-pruned enumeration of g-circulant first rows over small
fields, hunting involutory-MDS and semi-involutory/semi-orthogonal-MDS
matrices.

Candidates are indexed by a single integer token over the flattened
(g, row) space: rows enumerate as base-q numerals with c_0 most
significant, g blocks in ascending order. That makes every job
resumable, partitionable, and byte-for-byte deterministic. With pruning
on, exact theorem filters drop candidates from the spec alone; every
other candidate is decided by one lazy full_report, and a hit carries
that same report.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator

from .circulant import GCirculantSpec, build_g_circulant, square_is_identity
from .errors import ConfigError, ResumeTokenError, SpaceTooLargeError
from .field import GF2m
from .properties import PropertyReport, full_report, involutory_g_filter
from .properties import is_mds  # noqa: F401  # kept as gcirc.search.is_mds, a name the benchmark's tracer test asserts

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
        shown = total if total.bit_length() <= 64 else f"(over 2^{(total - 1).bit_length() - 1})"
        if not 0 <= start <= total:
            raise ResumeTokenError(f"resume token {start} outside 0..{shown}")
        if not start <= stop <= total:
            raise ResumeTokenError(f"stop token {stop} outside {start}..{shown}")
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
    """Read the report's fields cheapest first: the minor sweep runs last
    for the semi-* targets, and before the inverse for INVOLUTORY_MDS,
    whose candidates already passed the structured-square filter."""
    if target is Target.INVOLUTORY_MDS:
        return report.mds and report.involutory
    if target is Target.SEMI_INVOLUTORY_MDS:
        return report.semi_involutory is not None and report.mds
    if target is Target.SEMI_ORTHOGONAL_MDS:
        return report.semi_orthogonal is not None and report.mds
    return report.mds


def _g_pruned(job: SearchJob, g: int) -> bool:
    """True when an exact theorem filter rules out every row of g's block."""
    k = job.k
    power_of_two = job.prune_power_of_two and k >= 4 and k & (k - 1) == 0  # no involutory MDS of order 2^d
    return job.target is Target.INVOLUTORY_MDS and (power_of_two or not involutory_g_filter(g, k))


def _row_pruned(job: SearchJob, spec: GCirculantSpec) -> bool:
    """True when an exact theorem filter rules out the row of a g that passed
    _g_pruned. A constrained row is not squared here: run_search squares
    the rows that pass as its membership check."""
    if 0 in spec.row:
        return True  # MDS needs every entry nonzero
    return (
        job.target is Target.INVOLUTORY_MDS
        and job.row_space.kind is not RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT
        and not square_is_identity(spec)
    )


def run_search(
    job: SearchJob, on_progress: Callable[[int], None] | None = None
) -> Iterator[SearchResult]:
    """Walk the job's token window and yield every verified hit.

    Results come out in ascending (g, ordinal) order. With pruning on,
    _g_pruned drops whole g blocks before their rows are built, then
    _row_pruned drops rows, before a constrained row is squared to decide
    its membership; every other candidate, and every candidate
    without pruning, is decided by target_satisfied on one full_report,
    which the hit carries. debug_recheck samples that fraction of the
    pruned candidates and asserts that the full report rejects them too.
    on_progress(token) runs once the token is walked: for a hit, only
    when the consumer asks for the next result, so a consumer that
    must know its place while it handles a hit reads the hit's token.
    """
    start, stop = job.window()
    if stop - start > CANDIDATE_CAP:
        raise SpaceTooLargeError(
            f"a window of over 2^{(stop - start - 1).bit_length() - 1} candidates exceeds"
            f" the 2^{CANDIDATE_CAP.bit_length() - 1} cap; partition the job"
        )
    per_g = job.per_g_size()
    constrained = job.row_space.kind is RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT
    g_pruned = [job.pruning and _g_pruned(job, g) for g in job.g_set]
    for token in range(start, stop):
        gi, ordinal = divmod(token, per_g)
        g = job.g_set[gi]
        recheck = job.debug_recheck and _hash_unit(0xDEB06, token) < job.debug_recheck
        # a pruned g block builds rows only for the tokens debug_recheck samples
        spec = None if g_pruned[gi] and not recheck else GCirculantSpec(job.ctx, job.k, g, job.row_at(g, ordinal))
        if spec is None:
            pass  # pruned with its g block
        elif job.pruning and (g_pruned[gi] or _row_pruned(job, spec)):
            if recheck and target_satisfied(full_report(build_g_circulant(spec)), job.target):
                raise AssertionError(f"pruning dropped a qualifying candidate: {spec}")
        elif constrained and not square_is_identity(spec):
            pass  # outside the constrained row space
        else:
            report = full_report(build_g_circulant(spec))
            if target_satisfied(report, job.target):
                yield SearchResult(spec, report, ordinal, token)
        if on_progress is not None:
            on_progress(token)


def job_part(job: SearchJob, index: int, n_parts: int) -> SearchJob:
    """Sub-job index (0-based) of the job's token window split into
    n_parts contiguous sub-jobs. Concatenating the outputs of parts
    0..n_parts - 1 in order reproduces the single-job output exactly."""
    if not 0 <= index < n_parts:
        raise ConfigError(f"part index {index} outside 0..{n_parts - 1}")
    start, stop = job.window()
    span = stop - start
    return replace(
        job,
        resume_token=start + span * index // n_parts,
        stop_token=start + span * (index + 1) // n_parts,
    )
