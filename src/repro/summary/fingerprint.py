"""Content fingerprints for schemas, programs and whole workloads.

PR 2's cache-staleness machinery compared schemas by content hash and
programs by re-unfolding; this module exposes the same identity as stable,
addressable fingerprints so higher layers can *key* things by workload:

* :func:`schema_fingerprint` — a content hash of a :class:`~repro.schema.Schema`;
* :func:`program_fingerprint` — a content hash of one program's unfolded
  LTPs (``Unfold≤k`` output, so two BTPs that unfold identically share it);
* :func:`workload_fingerprint` — schema fingerprint + every program's
  unfold hash + the unfold depth, combined order-independently.

Two sessions share a workload fingerprint exactly when they would accept
each other's :meth:`~repro.analysis.Analyzer.save_cache` artifacts, which
is what makes the fingerprint the key of both the on-disk cache files and
the :class:`~repro.service.AnalysisService` warm-session pool.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

from repro.btp.ltp import LTP
from repro.btp.unfold import MAX_LOOP_ITERATIONS
from repro.schema import Schema


def schema_fingerprint(schema: Schema) -> str:
    """A content hash of a schema (its fields are tuples of frozen
    dataclasses, so ``repr`` is deterministic across processes)."""
    return hashlib.sha256(repr(schema).encode()).hexdigest()


def program_fingerprint(ltps: Sequence[LTP]) -> str:
    """A content hash of one program's unfolded LTPs.

    Hashes the canonical JSON of each LTP's ``to_dict`` (the same
    serialization :meth:`~repro.analysis.Analyzer.save_cache` persists), so
    the fingerprint survives process boundaries and matches exactly when
    PR 2's unfold-equality staleness check would accept the cache.
    """
    digest = hashlib.sha256()
    for ltp in ltps:
        digest.update(json.dumps(ltp.to_dict(), sort_keys=True).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def workload_fingerprint(
    schema: Schema,
    unfolded_by_program: Mapping[str, Sequence[LTP]],
) -> str:
    """The identity of one analysis workload: schema + unfold hashes + k.

    ``unfolded_by_program`` maps each BTP name to its ``Unfold≤k`` LTPs,
    k = :data:`~repro.btp.unfold.MAX_LOOP_ITERATIONS`.
    Program order does not matter (entries are hashed sorted by name), so
    reordering a workload file keeps its warm sessions and cache artifacts
    valid; renaming or editing any program changes the fingerprint.
    """
    digest = hashlib.sha256()
    digest.update(schema_fingerprint(schema).encode())
    digest.update(f"|k={MAX_LOOP_ITERATIONS}".encode())
    for name in sorted(unfolded_by_program):
        digest.update(f"|{name}=".encode())
        digest.update(program_fingerprint(unfolded_by_program[name]).encode())
    return digest.hexdigest()
