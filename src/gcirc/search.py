"""Theorem-pruned enumeration of g-circulant first rows over small
fields, hunting involutory-MDS and semi-involutory/semi-orthogonal-MDS
matrices.

Candidates are indexed by a single integer token over the flattened
(g, row) space: rows enumerate as base-q numerals with c_0 most
significant, g blocks in ascending order. That makes every job
resumable, partitionable, and byte-for-byte deterministic. One stream,
_candidates, decides which tokens get a full report: with pruning on,
exact theorem filters drop candidates from the spec alone, whole g
blocks before any row is built and, in an EXHAUSTIVE INVOLUTORY_MDS
block, every row the characteristic-2 square law's linear rules reject
without building it. Where k is odd and divides q - 1, a constrained
block, whose rows are those with A^2 = I, builds with pruning on just
the rows circulant.involutory_rows computes as inverse DFTs, when they
are no more than the window's tokens. A hit carries its candidate's
one lazy full_report.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator

from .circulant import (
    GCirculantSpec,
    build_g_circulant,
    involutory_g_filter,
    involutory_row_count,
    involutory_rows,
    square_is_identity,
    square_plan,
)
from .errors import ConfigError, RecheckError, ResumeTokenError, SpaceTooLargeError, excerpt
from .field import GF2m
from .matrix import check_order
from .properties import PropertyReport, full_report
from .properties import is_mds  # noqa: F401  # kept as gcirc.search.is_mds, a name the benchmark's tracer test asserts

CANDIDATE_CAP = 1 << 24
# Rows one block may enumerate. They are all held in memory at once: at the cap,
# GF(2^8) k = 5 (65,025 rows) peaks 12 MB and GF(2^16) k = 3 (65,535 rows) 25 MB
# above a walk of the same window (Python 3.11, x86-64).
ENUMERATION_CAP = 1 << 16


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
            if self.count > 1 << 64:  # _hash_entry packs each ordinal as a 64-bit word
                raise ConfigError("RANDOM count must be at most 2^64")
            seed = 0 if self.seed is None else self.seed
            if not 0 <= seed < 1 << 64:
                raise ConfigError("seed must fit in 64 bits")
            object.__setattr__(self, "seed", seed)
        elif self.count is not None or self.seed is not None:
            raise ConfigError(f"{self.kind.value} row space takes no count/seed")


@dataclass(frozen=True)
class SearchJob:
    """One deterministic search over (g, first row) candidates; its order
    passes matrix.check_order when it is made."""

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
        check_order(self.k)  # before the g set and the window, which grow with k
        constrained = self.row_space.kind is RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT
        left = self.k - 1  # the left-circulant g
        if self.g_set is None:
            gs = (left,) if constrained else tuple(g for g in range(self.k) if math.gcd(g, self.k) == 1)
        else:
            gs = tuple(sorted({g % self.k for g in self.g_set}))
            for g in gs:
                if math.gcd(g, self.k) != 1:
                    raise ConfigError(f"g = {g} is not coprime to k = {self.k}")
            if constrained and gs != (left,):
                raise ConfigError(f"constrained left-circulant rows fix g = k-1 = {left}, got g_set {excerpt(str(gs))}")
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
            raise ResumeTokenError(f"resume token {excerpt(str(start))} outside 0..{shown}")
        if not start <= stop <= total:
            raise ResumeTokenError(f"stop token {excerpt(str(stop))} outside {excerpt(str(start))}..{shown}")
        return start, stop

    def row_at(self, g: int, ordinal: int) -> tuple[int, ...]:
        """The candidate first row for one (g, ordinal) pair."""
        q = self.ctx.q
        kind = self.row_space.kind
        if kind is RowSpaceKind.EXHAUSTIVE:
            return _base_q_digits(ordinal, q, self.k)
        if kind is RowSpaceKind.RANDOM:
            seed = self.row_space.seed
            return tuple([_hash_entry(seed, ordinal, pos, q) for pos in range(self.k)])
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


_PACK_ENTRY = struct.Struct("<QQQ").pack
_BLAKE2B_8 = hashlib.blake2b(digest_size=8)  # never updated: each entry hashes a copy


def _hash_entry(seed: int, ordinal: int, pos: int, q: int) -> int:
    """The low bits of blake2b-64 over (seed, ordinal, pos) as three
    little-endian 64-bit words: entry pos of a RANDOM row."""
    h = _BLAKE2B_8.copy()
    h.update(_PACK_ENTRY(seed, ordinal, pos))
    return int.from_bytes(h.digest(), "little") & (q - 1)


def _hash_unit(salt: int, token: int) -> float:
    """A uniform draw in [0, 1) from blake2b-64 over (salt, token mod 2^64)."""
    raw = hashlib.blake2b(struct.pack("<QQ", salt, token % (1 << 64)), digest_size=8).digest()
    return int.from_bytes(raw, "little") / float(1 << 64)


def target_satisfied(report: PropertyReport, target: Target) -> bool:
    """Read the report's fields cheapest first: the minor sweep runs last
    for the semi-* targets, and before the inverse for INVOLUTORY_MDS,
    whose pruned candidates already passed square_is_identity."""
    if target is Target.INVOLUTORY_MDS:
        return report.mds and report.involutory
    if target is Target.SEMI_INVOLUTORY_MDS:
        return report.semi_involutory is not None and report.mds
    if target is Target.SEMI_ORTHOGONAL_MDS:
        return report.semi_orthogonal is not None and report.mds
    return report.mds


def _g_pruned(job: SearchJob, g: int) -> bool:
    """True when an exact theorem filter rules out every row of g's block.

    For SEMI_INVOLUTORY_MDS that is g = 1 with odd k > 1: no zero-free
    circulant A = circ(c) of odd order k > 1 is semi-involutory.

    The law for g = 1: if B is a circulant and D1*A*D2 = B, then
    d1[i]*d2[j] = B[i,j]/A[i,j] is unchanged by (i, j) -> (i+1, j+1), so
    d1[i+1]/d1[i] = d2[j]/d2[j+1] is one constant lam for all i, j, and
    going once round gives lam^k = 1. Anchoring d2[0] = 1 and calling
    d1[0] = s, D1*A*D2 = s*circ(c(lam^-1 x)) in R = GF(2^m)[x]/(x^k - 1).
    A^-1 is a circulant, so A is semi-involutory iff
    c(lam^-1 x)*c(x) = s^-1 in R for some s != 0 and lam^k = 1.
    - lam = 1: c(x)^2 = sum c_i^2 x^(2i) in characteristic 2, and i -> 2i
      is a bijection mod odd k, so c_i = 0 for every i != 0.
    - lam != 1, of odd order k' >= 3 dividing k: in a splitting field let
      zeta be a primitive k-th root of unity, a_j = c(zeta^j) and
      lam = zeta^t. Then a_(j-t)*a_j = s^-1 for all j, so
      a_j = a_(j-2t). The step 2t generates the same subgroup H of Z_k as
      t (2 is invertible mod k), so a is constant on the cosets of H, and
      its inverse DFT has c_i = 0 unless k' | i: c_1 = 0.
    Either way some entry of the row is 0, so A is not MDS.
    """
    k = job.k
    if job.target is Target.SEMI_INVOLUTORY_MDS:
        return g == 1 and k > 1 and k % 2 == 1
    if job.target is not Target.INVOLUTORY_MDS:
        return False
    power_of_two = job.prune_power_of_two and k >= 4 and k & (k - 1) == 0  # no involutory MDS of order 2^d
    if power_of_two or not involutory_g_filter(g, k):
        return True
    # a rule that sums one index to 0 forces that entry to 0 (exactly g = 1 with odd k > 1)
    return any(not others and not target for _, others, target in square_plan(k, g)[0])


def _admitted_rows(job: SearchJob, g: int, lo: int, hi: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(ordinal, row) in ascending order for the EXHAUSTIVE rows in ordinals
    [lo, hi) with no zero entry that meet the linear rules of
    square_plan(k, g).

    Each rule's others are free digits, which run over 1..q-1 with the
    lowest index most significant; its determined index is the largest
    of its set, so the rank of the free digits orders the rows by
    ordinal, and the window start is found by bisecting that rank. A row
    whose determined digit is 0 is dropped."""
    q, k, m = job.ctx.q, job.k, job.ctx.m
    rules = square_plan(k, g)[0]
    free = sorted(set(range(k)) - {i for i, _, _ in rules}, reverse=True)

    def at(rank: int) -> tuple[int, list[int]]:
        """(ordinal, row) of the free digits of that rank."""
        row = [0] * k
        for i in free:
            rank, digit = divmod(rank, q - 1)
            row[i] = digit + 1
        for i, others, value in rules:
            for j in others:
                value ^= row[j]
            row[i] = value
        ordinal = 0
        for c in row:
            ordinal = ordinal << m | c
        return ordinal, row

    ranks = (q - 1) ** len(free)
    first, last = 0, ranks
    while first < last:
        mid = (first + last) // 2
        if at(mid)[0] < lo:
            first = mid + 1
        else:
            last = mid
    for rank in range(first, ranks):
        ordinal, row = at(rank)
        if ordinal >= hi:
            return
        if all(row):
            yield ordinal, tuple(row)


def _enumerates(job: SearchJob, g: int, lo: int, hi: int) -> bool:
    """True when g's block is constrained, whose membership is A^2 = I,
    pruning is on, involutory_rows can list the block's rows (odd k
    dividing q - 1), and there are no more of them than ordinals in
    [lo, hi) or than ENUMERATION_CAP.

    Enumerating costs about 1.5 us a row at GF(2^8), k = 5 and 4.4 us at
    GF(2^16), k = 3, walking about 3.7 us a token (Python 3.11, x86-64), so
    a window of exactly the row count takes 0.4x and 1.2x the walk's time
    there, and twice that window at most 0.65x."""
    if not job.pruning or job.row_space.kind is not RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT:
        return False
    count = involutory_row_count(job.ctx.q, job.k, g)
    return count is not None and count <= min(hi - lo, ENUMERATION_CAP)


def _enumerated_rows(job: SearchJob, g: int, lo: int, hi: int) -> list[tuple[int, tuple[int, ...]]]:
    """(ordinal, row) in ascending order for the rows of involutory_rows
    whose ordinal, the numeral of c_1..c_{k-1}, lies in [lo, hi)
    (c_0 = 1 + their sum holds for every involutory row)."""
    m = job.ctx.m
    rows = []
    for row in involutory_rows(job.ctx, job.k, g):
        ordinal = 0
        for c in row[1:]:
            ordinal = ordinal << m | c
        rows.append((ordinal, row))
    rows.sort()
    return rows[bisect_left(rows, (lo,)) : bisect_left(rows, (hi,))]


def _candidates(job: SearchJob, g: int, lo: int, hi: int) -> Iterator[tuple[int, GCirculantSpec]]:
    """(ordinal, spec) in ascending order for the tokens of g's block in
    ordinals [lo, hi) that get a full report. Every filter is here: with
    pruning on, a g block _g_pruned rules out, a zero entry, and for
    INVOLUTORY_MDS A^2 != I (an EXHAUSTIVE block builds only
    _admitted_rows); with pruning on or off, a constrained row outside
    the row space, whose membership is A^2 = I (a block _enumerates
    builds only its _enumerated_rows). square_is_identity decides A^2 = I
    on the bare row, so a spec is built only for a row it admits."""
    involutory = job.pruning and job.target is Target.INVOLUTORY_MDS
    squared = involutory or job.row_space.kind is RowSpaceKind.CONSTRAINED_LEFT_CIRCULANT
    if job.pruning and _g_pruned(job, g):
        return
    if _enumerates(job, g, lo, hi):
        rows = _enumerated_rows(job, g, lo, hi)
    elif involutory and job.row_space.kind is RowSpaceKind.EXHAUSTIVE:
        rows = _admitted_rows(job, g, lo, hi)
    else:
        rows = ((ordinal, job.row_at(g, ordinal)) for ordinal in range(lo, hi))
    for ordinal, row in rows:
        if job.pruning and 0 in row:  # MDS needs every entry nonzero
            continue
        if squared and not square_is_identity(job.ctx, job.k, g, row):
            continue
        yield ordinal, GCirculantSpec(job.ctx, job.k, g, row)


def _no_progress(first: int, stop: int) -> None:
    """run_search's default progress hook, which ignores every range."""


def _walk_skipped(
    unpruned: SearchJob, g: int, base: int, lo: int, hi: int, on_progress: Callable[[int, int], None]
) -> None:
    """Walk the ordinals [lo, hi) of g's block that _candidates skipped,
    reporting them to on_progress in one call. unpruned is the job with
    pruning off. When it has a debug_recheck fraction, the walk instead
    goes one token at a time, so progress keeps pace with its slow
    rebuilds, and for that fraction of the tokens runs unpruned's
    _candidates over the one ordinal, which yields the row only if it
    lies in the row space. A row whose full report meets the target
    raises RecheckError."""
    if not unpruned.debug_recheck:
        if lo < hi:
            on_progress(base + lo, base + hi)
        return
    for ordinal in range(lo, hi):
        token = base + ordinal
        if _hash_unit(0xDEB06, token) < unpruned.debug_recheck:
            for _, spec in _candidates(unpruned, g, ordinal, ordinal + 1):
                if target_satisfied(full_report(build_g_circulant(spec)), unpruned.target):
                    raise RecheckError(f"pruning dropped a qualifying candidate: {spec}")
        on_progress(token, token + 1)


def run_search(
    job: SearchJob, on_progress: Callable[[int, int], None] = _no_progress
) -> Iterator[SearchResult]:
    """Walk the job's token window and yield every verified hit.

    Results come out in ascending (g, ordinal) order. Each token that
    _candidates yields is decided by target_satisfied on one
    full_report, which the hit carries; the tokens between them are
    walked by _walk_skipped. Every token of the window is reported once
    it is walked, by on_progress(first, stop) for the tokens
    [first, stop): one call per skipped range, and one per token that
    gets a full report or that debug_recheck walks, in token order. A
    hit's token is reported only when the consumer asks for the next
    result, so a consumer that must know its place while it handles a hit
    reads the hit's token.
    """
    start, stop = job.window()
    if stop - start > CANDIDATE_CAP:
        raise SpaceTooLargeError(
            f"a window of over 2^{(stop - start - 1).bit_length() - 1} candidates exceeds"
            f" the 2^{CANDIDATE_CAP.bit_length() - 1} cap; partition the job"
        )
    unpruned = replace(job, pruning=False)
    per_g = job.per_g_size()
    for gi, g in enumerate(job.g_set):
        base = gi * per_g
        lo, hi = max(start - base, 0), min(stop - base, per_g)
        walked = lo  # the next ordinal not yet walked
        for ordinal, spec in _candidates(job, g, lo, hi):
            _walk_skipped(unpruned, g, base, walked, ordinal, on_progress)
            report = full_report(build_g_circulant(spec))
            token = base + ordinal
            if target_satisfied(report, job.target):
                yield SearchResult(spec, report, ordinal, token)
            on_progress(token, token + 1)
            walked = ordinal + 1
        _walk_skipped(unpruned, g, base, walked, hi, on_progress)


def job_part(job: SearchJob, index: int, n_parts: int) -> SearchJob:
    """Sub-job index (0-based) of the job's token window split into
    n_parts contiguous sub-jobs. Concatenating the outputs of parts
    0..n_parts - 1 in order reproduces the single-job output exactly."""
    if not 0 <= index < n_parts:
        raise ConfigError(f"part index {excerpt(str(index))} outside 0..{excerpt(str(n_parts - 1))}")
    start, stop = job.window()
    span = stop - start
    return replace(
        job,
        resume_token=start + span * index // n_parts,
        stop_token=start + span * (index + 1) // n_parts,
    )
