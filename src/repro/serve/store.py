"""A persistent store of materialized leaf cuboids.

:class:`~repro.online.materialize.LeafMaterialization` holds the BUC
processing tree's leaf cuboids in memory; a :class:`CubeStore` is the
same idea made durable.  Both hold each leaf as one
:class:`~repro.core.columnar.CellRun` — its cells sorted by cell, as one
integer column per dimension plus a count and a sum column — and answer
from it with the same ``group_by`` / ``lookup`` / ``merge``.  ``build``
precomputes the leaves (minsup 1) and writes one file per leaf under a
directory; ``open`` attaches to a previously built store, so a process
restart pays a file read instead of the full precompute.

On-disk layout (format version 3)::

    <directory>/
      manifest.json        # dims, generation, per-leaf file + checksum
      A_D.run, B_D.run ... # one encoded CellRun per leaf, as built
      A_D.g7.run ...       # the same leaf as compacted at generation 7
      wal/                 # appended batches not yet compacted

A ``.run`` file is :meth:`CellRun.encode
<repro.core.columnar.CellRun.encode>`'s bytes (layout:
:class:`~repro.core.columnar.RunWriter`): self-describing, blocks of
4 096 cells, every column of a block in the narrowest integer dtype its
values need.  The bytes depend on the cells alone, so the pool, the
in-process path and the MapReduce reducers write identical files.  A
group-by is boundaries + ``np.add.reduceat`` over the loaded run; a
point lookup is ``searchsorted`` on it.  Version 2 stores (CSV leaves)
are converted once by ``repro-cube store migrate DIR``.

**Crash safety.**  The manifest records every leaf's byte size and
SHA-256, and :meth:`CubeStore.open` verifies them (``verify="quick"``
checks sizes, ``"full"`` re-hashes the content).  A truncated, corrupted
or missing leaf is *salvaged* — rebuilt by projecting the root leaf,
which covers every other leaf at minsup 1 — or, when the root leaf
itself is damaged, :class:`~repro.errors.StoreCorruptError` names the
offending leaf.  Debris from interrupted writes (``*.tmp.*``, leaf
files the manifest does not name) is swept on open.

**Immutable snapshots.**  What a store holds at one instant is a
:class:`~repro.online.materialize.LeafSnapshot` — the leaf files one
manifest names plus the batches appended since — that ``append`` and
``compact`` replace under the write lock and nobody edits, so a read
takes no lock either of them holds and answers one generation.

**One append path.**  ``append`` never touches a leaf file: the batch is
made durable as one checksummed write-ahead-log record
(:mod:`repro.serve.ingest`) and kept, as columns, in the list of
*pending batches* of the next snapshot — O(batch), whatever the store's
size or leaf count.  The first read of a leaf through a snapshot
projects its pending rows onto the leaf's dimensions and merges them
into the base run (cached on that snapshot).  A ``batch_id`` the store
already applied is acknowledged, never re-applied.  Every store appends
this way, whether it came from ``open``, ``build``,
``from_materialization`` or ``assemble``; ``wal/`` appears on the first
append.

**One leaf writer.**  Every leaf file is streamed by :class:`LeafWriter`.
A leaf file is never overwritten: a build over a live store writes
around its files (:func:`build_generations`); after the build,
:meth:`CubeStore.compact` writes every merged leaf under a name no
earlier generation used, and *one* atomic replace of ``manifest.json``
is the commit.  A crash before it leaves orphan files and a WAL that
replays on reopen; a crash after it leaves the superseded files and
now-stale WAL records, both swept on reopen — never a mix, nothing
lost, nothing counted twice.  Rewrite-per-append, where wanted, is
``append(); compact()``.
"""

import hashlib
import json
import os
import threading
from collections import namedtuple

import numpy as np

from .. import obs
from ..core.columnar import CellRun, RunWriter, code_matrix
from ..core.export import MANIFEST, atomic_write
from ..errors import PlanError, SchemaError, StoreCorruptError, WalCorruptError
from ..online.materialize import LeafHolder, LeafSnapshot
from .ingest import WriteAheadLog, stamped_batch_id

STORE_FORMAT = "repro-cube-store/1"
STORE_FORMAT_VERSION = 3

#: Extension of a leaf file (an encoded :class:`CellRun`).
LEAF_SUFFIX = ".run"

#: The two-phase compaction journal of earlier releases.  Nothing
#: writes one any more; a directory still holding one is refused.
JOURNAL = "journal.json"

#: Verification levels accepted by :meth:`CubeStore.open`.
VERIFY_LEVELS = ("off", "quick", "full")

#: Subdirectory holding the write-ahead log (see :mod:`repro.serve.ingest`).
WAL_DIR = "wal"

#: Auto-compaction threshold: pending WAL batches before a background
#: compaction folds them into the leaf files.  ``None`` disables.
DEFAULT_COMPACT_AFTER = 8

#: How many applied batch ids the manifest remembers after compaction.
#: Bounds the idempotence window: a duplicate arriving more than this
#: many batches late is no longer recognized.  Client retries happen
#: within seconds; 1024 batches is orders of magnitude more than that.
APPLIED_BATCH_WINDOW = 1024

#: What :meth:`CubeStore.append` returns.  ``applied`` is False when the
#: batch id was already applied (the duplicate is acknowledged at the
#: current generation, not re-applied).
AppendResult = namedtuple("AppendResult", ("generation", "applied", "batch_id"))


def _leaf_filename(cuboid, generation=1):
    """``A_D.run`` as built; ``A_D.g7.run`` as compacted at generation 7
    — a name no other generation uses, so no leaf file is overwritten
    (``A_D.g0.run``: built over a store that names ``A_D.run``)."""
    stamp = "" if generation == 1 else ".g%d" % generation
    return "_".join(cuboid) + stamp + LEAF_SUFFIX


def _live_files(directory):
    """``{leaf: file}`` of the store ``directory`` holds, or ``{}``
    (no manifest, or one nothing can open)."""
    try:
        manifest = _read_manifest(directory)
    except (SchemaError, ValueError):
        return {}
    return {tuple(entry["cuboid"]): entry["file"]
            for entry in manifest.get("leaves", ())}


def build_generations(directory):
    """``{leaf: 0}`` for each leaf the store in ``directory`` keeps
    under its build name.  A build writes those leaves as
    ``A_D.g0.run`` and the rest as ``A_D.run`` (generation 1): never
    over a file of the store it replaces, and never under a name a
    compaction writes (``.g<N>``, N >= 2)."""
    return {leaf: 0 for leaf, name in _live_files(directory).items()
            if name == _leaf_filename(leaf)}


def _sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_manifest(directory):
    manifest_path = os.path.join(directory, MANIFEST)
    try:
        with open(manifest_path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise SchemaError(
            "no cube-store manifest at %r" % (manifest_path,)) from None


def _refuse_journal(directory):
    """Refuse what ``open`` and ``migrate`` cannot take over.  Ignoring
    it could mix generations: the leaves the journal names may be half
    swung under the names the old manifest still uses."""
    if os.path.exists(os.path.join(directory, JOURNAL)):
        raise SchemaError(
            "%s holds the journal of a compaction interrupted under an "
            "earlier release; open it once with that release, which "
            "completes it" % directory)


def _write_json(path, payload):
    """Atomically publish a manifest."""
    atomic_write(
        path,
        lambda handle: json.dump(payload, handle, indent=2, sort_keys=True),
    )


class LeafWriter:
    """Stream one leaf cuboid to its ``.run`` file in bounded memory.

    Cells arrive as columns, in sorted order, in pieces of any size
    (:meth:`add`); :class:`~repro.core.columnar.RunWriter` cuts them
    into blocks while the SHA-256 and byte count are kept alongside.
    The file is written under an ``atomic_write``-style temp name;
    nothing is visible at the real path until :meth:`commit`, so a
    killed writer never leaves a partial leaf in the store.
    ``generation`` names the file (:func:`_leaf_filename`).
    """

    def __init__(self, directory, cuboid, generation=1):
        self.cuboid = tuple(cuboid)
        self.filename = _leaf_filename(self.cuboid, generation)
        self.path = os.path.join(str(directory), self.filename)
        self._tmp = "%s.tmp.%d" % (self.path, os.getpid())
        self._handle = open(self._tmp, "wb")
        self._digest = hashlib.sha256()
        self._bytes = 0
        self._run = RunWriter(self._write, self.cuboid)

    def _write(self, data):
        self._handle.write(data)
        self._digest.update(data)
        self._bytes += len(data)

    def add(self, codes, counts, sums):
        """Append cells: a ``(dims x cells)`` code matrix, counts, sums."""
        self._run.add(codes, counts, sums)

    def commit(self):
        """Publish the leaf atomically; returns its manifest entry."""
        self._run.finish()
        self._handle.close()
        os.replace(self._tmp, self.path)
        return {
            "file": self.filename,
            "cells": self._run.cells,
            "bytes": self._bytes,
            "sha256": self._digest.hexdigest(),
        }

    def abort(self):
        """Discard the temp file; the store is untouched."""
        try:
            self._handle.close()
        finally:
            try:
                os.remove(self._tmp)
            except OSError:
                pass


def write_leaf(directory, run, generation=1):
    """Write ``run`` as its leaf's file; returns the manifest entry."""
    writer = LeafWriter(directory, run.dims, generation)
    try:
        writer.add(run.codes, run.counts, run.sums)
        return writer.commit()
    except BaseException:
        writer.abort()
        raise


class _StoreSnapshot(LeafSnapshot):
    """One :class:`CubeStore` state: the leaf files one manifest names
    (``entries``; ``runs`` is what has been loaded from them so far)
    plus the batches appended since, merged in as leaves are read.

    :meth:`replace` copies by reference, so the snapshots an append
    publishes share ``entries`` and ``runs`` — a leaf is read from disk
    once, and a run stays reachable from the snapshots that may still
    want it after a compaction unlinked its file; only a compaction
    (or salvage, or ``close``) replaces the two, together.  ``lock``,
    shared by all, serialises cold loads and delta merges; ``append``
    and ``compact`` never hold it while they publish.
    """

    def __init__(self, dims, leaves, shard, directory, entries, runs,
                 generation, total_rows, total_measure):
        super().__init__(dims, leaves, dict(runs), generation, total_rows,
                         total_measure, shard)
        self.directory = directory
        #: leaf cuboid -> manifest entry (file, cells, bytes, sha256)
        self.entries = entries
        self.lock = threading.Lock()
        #: every WAL'd batch not yet compacted, as columns, in generation
        #: order: (((dims x rows) code matrix, measures), ...)
        self.batches = ()
        self._columns = None  # the batches concatenated, lazy
        self._merged = {}  # leaf -> base run (+) pending rows, lazy

    def replace(self, **state):
        return super().replace(_columns=None, _merged={}, **state)

    def base_run(self, leaf):
        """The leaf's on-disk cells (no pending rows), loaded on first
        use."""
        run = self.runs.get(leaf)
        if run is not None:
            return run
        with self.lock:
            run = self.runs.get(leaf)
            if run is not None:
                return run
            entry = self.entries.get(leaf)
            if entry is None:
                raise PlanError("cuboid %r is not a stored leaf" % (leaf,))
            with obs.span("store.load_leaf") as span:
                path = os.path.join(self.directory, entry["file"])
                with open(path, "rb") as handle:
                    data = handle.read()
                try:
                    run = CellRun.decode(data)
                except SchemaError as exc:
                    raise StoreCorruptError(
                        leaf, str(exc), self.directory) from None
                if len(run) != entry["cells"] or run.dims != leaf:
                    raise StoreCorruptError(
                        leaf,
                        "holds %d cells of %r on disk, manifest says %d"
                        % (len(run), run.dims, entry["cells"]),
                        self.directory,
                    )
                if span:
                    span.set(leaf="/".join(leaf), cells=len(run),
                             bytes=len(data))
            self.runs[leaf] = run
            return run

    def leaf_items(self, leaf):
        """The *merged view*: the on-disk base run plus the rows of
        every batch the snapshot was published with, projected onto the
        leaf's dimensions and merged in on the first read — so append
        cost never includes a leaf rewrite."""
        base = self.base_run(leaf)
        if not self.batches:
            return base
        merged = self._merged.get(leaf)
        if merged is not None:
            return merged
        with self.lock:
            merged = self._merged.get(leaf)
            if merged is None:
                with obs.span("store.merge_delta") as span:
                    if self._columns is None:
                        self._columns = tuple(
                            np.concatenate(column, axis=-1)
                            for column in zip(*self.batches))
                    codes, measures = self._columns
                    positions = [self.dims.index(d) for d in leaf]
                    merged = self._merged[leaf] = base.add_rows(
                        codes[positions], measures)
                    if span:
                        span.set(leaf="/".join(leaf), base_cells=len(base),
                                 pending_rows=len(measures))
            return merged


class CubeStore(LeafHolder):
    """Persistent, incrementally maintainable leaf-cuboid store.

    A store may hold *all* leaves of its dimension set or just one
    shard's worth (see :mod:`repro.serve.cluster`): ``build`` with
    ``shard=(i, n)`` writes only the leaves the stable placement hash
    assigns to shard ``i`` of ``n``, and the manifest records the
    placement so a later open under a different sharding is refused
    instead of silently serving the wrong subset.  ``shard`` is ``None``
    for an unsharded store.
    """

    def __init__(self, directory, manifest, runs=()):
        self.directory = str(directory)
        self._check_manifest(manifest)
        self.dims = tuple(manifest["dims"])
        shard = manifest.get("shard")
        self.shard = ((int(shard["index"]), int(shard["of"]))
                      if shard else None)
        #: integrity level this store was opened at ("off" for a fresh
        #: build); surfaced on the server's /healthz
        self.verify_mode = "off"
        entries = {}
        self.leaves = []
        for entry in manifest["leaves"]:
            cuboid = tuple(entry["cuboid"])
            self.leaves.append(cuboid)
            entries[cuboid] = {
                "file": entry["file"],
                "cells": int(entry["cells"]),
                "bytes": int(entry["bytes"]),
                "sha256": entry["sha256"],
            }
        #: the current state; replaced, never edited, under ``_lock``
        self._snapshot = _StoreSnapshot(
            self.dims, self.leaves, self.shard, self.directory, entries,
            runs, int(manifest["generation"]), int(manifest["total_rows"]),
            float(manifest["total_measure"]))
        #: the write lock: held to publish a snapshot (``append``, the
        #: commit of ``compact``), never by a read
        self._lock = threading.Lock()
        #: one compaction at a time, background or explicit
        self._compact_lock = threading.Lock()
        self._closed = False
        #: the write-ahead log every append goes through
        self.wal = WriteAheadLog(os.path.join(self.directory, WAL_DIR))
        self.compact_after = DEFAULT_COMPACT_AFTER
        #: batch_id -> generation for every applied batch still in the
        #: idempotence window (manifest window + pending WAL records)
        self._applied_batches = {
            str(batch): int(generation)
            for batch, generation in manifest.get("applied_batches", {}).items()
        }
        self._compacting = False
        self._compact_thread = None
        #: what `open` had to repair: orphans_removed / salvaged, plus
        #: wal_replayed / wal_pruned counts (a fresh build repaired
        #: nothing)
        self.recovery = {"orphans_removed": [], "salvaged": []}

    @staticmethod
    def _check_manifest(manifest):
        if manifest.get("format") != STORE_FORMAT:
            raise SchemaError(
                "unknown cube-store format %r" % (manifest.get("format"),)
            )
        if manifest.get("format_version") == 2:
            raise SchemaError(
                "cube-store format_version 2 (CSV leaves) is no longer read; "
                "convert the store once with: repro-cube store migrate DIR")
        if manifest.get("format_version") != STORE_FORMAT_VERSION:
            raise SchemaError(
                "cube-store format_version %r not supported (this library reads %d)"
                % (manifest.get("format_version"), STORE_FORMAT_VERSION)
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, relation, directory, dims=None, cluster_spec=None, cost_model=None,
              backend="simulated", shard=None, workers=None):
        """Precompute the leaf cuboids of ``relation`` and persist them.

        ``backend`` names the :mod:`repro.backends` entry whose
        ``materialize`` runs the minsup-1 leaf precompute and writes the
        store, returned open.  ``"local"`` aggregates the leaves over a
        columnar frame at machine speed instead of through the simulated
        cluster — same cells, much faster ingest (the CLI's default);
        ``workers`` > 1 spreads that over the supervised process pool.
        ``"mapreduce"`` streams the rows through a spill-to-disk shuffle
        (``workers`` sizes its pool).  ``cluster_spec`` / ``cost_model``
        belong to ``"simulated"``; an option the backend does not take
        is refused.  The stores are byte-identical whichever backend
        built them.

        ``shard=(i, n)`` builds one shard of a sharded serving tier on
        its own: only the leaves :class:`~repro.serve.cluster.ShardMap`
        assigns to shard ``i`` of ``n`` are computed (in memory, so not
        by ``"mapreduce"`` — its ``materialize(shards=n)`` writes all n
        in one round) and written, and the placement is recorded in the
        manifest.
        """
        from ..backends import resolve_backend

        entry = resolve_backend(backend)
        options = entry.given_options(
            cluster_spec=cluster_spec, cost_model=cost_model, workers=workers)
        if shard is None:
            return entry.materialize(relation, directory, dims, **options)[0]
        from ..online.materialize import LeafMaterialization
        from .cluster import ShardMap

        index, of = int(shard[0]), int(shard[1])
        shard_map = ShardMap(tuple(dims) if dims else relation.dims, of)
        materialization = LeafMaterialization(
            relation, dims=dims, backend=backend,
            leaves=shard_map.leaves_for(index), **options)
        return cls.from_materialization(materialization, directory,
                                        shard=(index, of))

    @classmethod
    def from_materialization(cls, materialization, directory, shard=None):
        """Persist an in-memory :class:`LeafMaterialization` as a store.

        ``shard=(i, n)`` writes the leaves
        :class:`~repro.serve.cluster.ShardMap` places on shard ``i`` of
        ``n`` — all the materialization holds when it was built for that
        shard, its share of a whole one (how one precompute becomes n
        shard stores).
        """
        directory = str(directory)
        os.makedirs(directory, exist_ok=True)
        leaves = materialization.leaves
        if shard is not None:
            from .cluster import ShardMap

            leaves = ShardMap(materialization.dims, shard[1]).leaves_for(
                shard[0])
        materialization = materialization.snapshot()
        generations = build_generations(directory)
        entries = {}
        loaded = {}
        for leaf in leaves:
            with obs.span("store.write_leaf") as span:
                run = loaded[leaf] = materialization.leaf_items(leaf)
                entry = entries[leaf] = write_leaf(
                    directory, run, generations.get(leaf, 1))
                if span:
                    span.set(leaf="/".join(leaf), cells=len(run),
                             bytes=entry["bytes"])
        return cls._publish(directory, cls._manifest_dict(
            materialization.dims, leaves, entries,
            generation=1,
            total_rows=materialization.total_rows,
            total_measure=materialization.total_measure,
            shard=shard,
        ), loaded)

    @classmethod
    def assemble(cls, directory, dims, entries, total_rows, total_measure,
                 shard=None, generation=1):
        """Write a manifest over leaf files already committed on disk.

        The externalized build path: workers write leaves through
        :class:`LeafWriter` (each commit is atomic), then the driver
        calls ``assemble`` with the collected manifest entries (leaf
        cuboid -> entry dict as returned by :meth:`LeafWriter.commit`)
        to publish the store.  The manifest lists leaves in the one
        order :meth:`_manifest_dict` fixes, so it is byte-stable across
        re-executions and equal to a pool-built store's.
        """
        directory = str(directory)
        os.makedirs(directory, exist_ok=True)
        return cls._publish(directory, cls._manifest_dict(
            dims, entries, entries, generation=int(generation),
            total_rows=int(total_rows), total_measure=float(total_measure),
            shard=shard,
        ))

    @classmethod
    def _publish(cls, directory, manifest, runs=()):
        """Publish a fresh build's manifest; returns the store open
        (``runs``: the leaves already in memory).

        The build supersedes whatever the directory held, so the WAL
        records of a store it replaces are dropped first — they must
        not replay onto cells that never saw their base — and the leaf
        files that store named, which the build wrote around
        (:func:`build_generations`), are unlinked after the replace.
        """
        replaced = set(_live_files(directory).values()).intersection(
            os.listdir(directory))
        store = cls(directory, manifest, runs)
        store.wal.truncate_through(max(store.wal.generations(), default=0))
        _write_json(os.path.join(directory, MANIFEST), manifest)
        for name in replaced - {entry["file"] for entry in manifest["leaves"]}:
            os.unlink(os.path.join(directory, name))
        return store

    @classmethod
    def open(cls, directory, verify="quick", salvage=True, wal=True,
             compact_after=DEFAULT_COMPACT_AFTER):
        """Attach to a store previously written by :meth:`build`.

        ``verify`` controls the integrity pass: ``"quick"`` (default)
        checks every leaf file's existence and byte size against the
        manifest, ``"full"`` re-hashes the content, ``"off"`` skips the
        pass (and with it the orphan sweep).  Damaged leaves are rebuilt
        from the root leaf when ``salvage`` is true; otherwise — or when
        the root leaf itself is damaged —
        :class:`~repro.errors.StoreCorruptError` names the leaf.  What
        was repaired is reported in the returned store's ``.recovery``.

        Pending write-ahead-log records (appends not yet compacted, see
        :mod:`repro.serve.ingest`) are replayed into delta runs, and a
        background compaction folds them into the leaf files every
        ``compact_after`` batches (``None`` = only on explicit
        :meth:`compact`).  ``wal`` is accepted and ignored: every store
        appends through its WAL.
        """
        if verify not in VERIFY_LEVELS:
            raise PlanError(
                "verify must be one of %s, got %r" % (", ".join(VERIFY_LEVELS), verify)
            )
        directory = str(directory)
        store = cls(directory, _read_manifest(directory))
        _refuse_journal(directory)
        recovery = store.recovery
        store.verify_mode = verify
        if verify != "off":
            store._sweep_orphans(recovery)
            store._verify_leaves(verify, salvage, recovery)
        store.compact_after = (None if compact_after is None
                               else max(1, int(compact_after)))
        store._replay_wal(recovery)
        if recovery["orphans_removed"] or recovery["salvaged"]:
            obs.event("store.recovered",
                      orphans_removed=len(recovery["orphans_removed"]),
                      salvaged=len(recovery["salvaged"]))
        return store

    @classmethod
    def migrate(cls, directory, read_leaf):
        """Convert a format-2 store (CSV leaves) to format 3, in place.

        ``read_leaf(path, leaf)`` parses one old leaf file into a
        :class:`CellRun`; the CSV reader lives with the ``store
        migrate`` command, not here.  The ``.run`` files are written
        beside the CSVs, the format-3 manifest is published atomically
        last, then the CSVs are removed: a crash before the manifest
        leaves a valid format-2 store (migrate again), after it a valid
        format-3 store whose leftover CSVs the next :meth:`open` sweeps
        as orphans.  Pending WAL batches are kept — the WAL format did
        not change — and replay on the next open.  Returns ``(leaves,
        cells)`` converted.
        """
        directory = str(directory)
        manifest = _read_manifest(directory)
        if (manifest.get("format") != STORE_FORMAT
                or manifest.get("format_version") != 2):
            raise SchemaError(
                "%s is not a format-2 cube store (format %r, version %r): "
                "nothing to migrate" % (directory, manifest.get("format"),
                                        manifest.get("format_version")))
        _refuse_journal(directory)
        entries = {}
        for old in manifest["leaves"]:
            leaf = tuple(old["cuboid"])
            run = read_leaf(os.path.join(directory, old["file"]), leaf)
            if len(run) != int(old["cells"]):
                raise SchemaError(
                    "leaf file %r holds %d cells, its manifest says %d"
                    % (old["file"], len(run), old["cells"]))
            entries[leaf] = write_leaf(directory, run)
        shard = manifest.get("shard")
        _write_json(os.path.join(directory, MANIFEST), cls._manifest_dict(
            manifest["dims"], entries, entries,
            generation=manifest["generation"],
            total_rows=manifest["total_rows"],
            total_measure=manifest["total_measure"],
            shard=(shard["index"], shard["of"]) if shard else None,
            applied_batches=manifest.get("applied_batches"),
        ))
        for old in manifest["leaves"]:
            os.unlink(os.path.join(directory, old["file"]))
        return len(entries), sum(e["cells"] for e in entries.values())

    def _replay_wal(self, recovery):
        """Re-apply the WAL records newer than the manifest."""
        self.wal.sweep()
        # Records at or below the manifest generation were compacted in
        # (a crash between the manifest replace and WAL truncation).
        pruned = self.wal.truncate_through(self.generation)
        replayed = 0
        for record in self.wal.replay():
            if record.generation != self.generation + 1:
                raise WalCorruptError(
                    self.wal.path_for(record.generation),
                    "generation gap: record %d follows store generation %d"
                    % (record.generation, self.generation))
            if record.dims != self.dims:
                raise WalCorruptError(
                    self.wal.path_for(record.generation),
                    "dims %r do not match store dims %r"
                    % (record.dims, self.dims))
            self._apply_delta(
                code_matrix(record.rows, len(self.dims)), record.measures,
                record.generation, record.batch_id)
            replayed += 1
        recovery["wal_replayed"] = replayed
        recovery["wal_pruned"] = pruned
        if replayed or pruned:
            obs.event("ingest.wal_recovered", replayed=replayed,
                      pruned=pruned, generation=self.generation)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def _sweep_orphans(self, recovery):
        """Remove write debris the manifest does not reference.

        ``atomic_write`` temps are an interrupted writer's leftovers;
        ``.run`` files no manifest entry names are a compaction's — the
        new files of one cut before its commit, or the superseded files
        of one cut after it; ``.csv`` files are a finished ``store
        migrate``'s and ``.staged`` files an earlier release's
        interrupted rewrite.  Anything else is left alone.
        """
        known = {MANIFEST}
        known.update(entry["file"]
                     for entry in self._snapshot.entries.values())
        for name in sorted(os.listdir(self.directory)):
            if name in known:
                continue
            path = os.path.join(self.directory, name)
            if not os.path.isfile(path):
                continue
            if (".tmp." in name
                    or name.endswith((LEAF_SUFFIX, ".csv", ".staged"))):
                os.unlink(path)
                recovery["orphans_removed"].append(name)

    def _leaf_damage(self, entry, level):
        """Why the leaf's file fails verification, or ``None`` if intact."""
        path = os.path.join(self.directory, entry["file"])
        try:
            size = os.path.getsize(path)
        except OSError:
            return "leaf file %r is missing" % (entry["file"],)
        if size != entry["bytes"]:
            return ("leaf file %r is %d bytes, manifest says %d "
                    "(truncated or overwritten)"
                    % (entry["file"], size, entry["bytes"]))
        if level == "full" and _sha256_file(path) != entry["sha256"]:
            return "leaf file %r fails its SHA-256 check (corrupted content)" % (
                entry["file"],)
        return None

    def _verify_leaves(self, level, salvage, recovery):
        snap = self._snapshot
        damaged = []
        for leaf in self.leaves:
            reason = self._leaf_damage(snap.entries[leaf], level)
            if reason is not None:
                damaged.append((leaf, reason))
        if not damaged:
            return
        root = self.dims
        if root not in snap.entries:
            # A shard store without the root leaf has nothing local to
            # salvage from; its replicas are the redundancy instead.
            leaf, reason = damaged[0]
            raise StoreCorruptError(
                leaf, reason + "; this shard store does not hold the root "
                "leaf, so local salvage is impossible — rebuild the shard "
                "or restore from a sibling replica",
                self.directory,
            )
        root_damage = [item for item in damaged if item[0] == root]
        if root_damage:
            leaf, reason = root_damage[0]
            raise StoreCorruptError(
                leaf, reason + "; the root leaf covers every other leaf, so "
                "nothing remains to salvage from — rebuild the store",
                self.directory,
            )
        if not salvage:
            leaf, reason = damaged[0]
            raise StoreCorruptError(leaf, reason, self.directory)
        # Leaves hold unfiltered minsup-1 cells and count/sum are
        # distributive, so projecting the (intact) root leaf's cells
        # onto a damaged leaf's dimensions reproduces its content
        # exactly.  Nobody has been handed a snapshot yet; the repaired
        # files are still published as a new one.
        runs = {root: snap.base_run(root)}
        entries = dict(snap.entries)
        for leaf, _reason in damaged:
            with obs.span("store.salvage", leaf=list(leaf)):
                runs[leaf] = runs[root].project(
                    [self.dims.index(d) for d in leaf])
                entries[leaf] = write_leaf(self.directory, runs[leaf],
                                           snap.generation)
            recovery["salvaged"].append(leaf)
        self._write_manifest(snap, entries, self._applied_batches)
        self._snapshot = snap.replace(entries=entries, runs=runs)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self):
        """Release in-memory leaf data; further queries raise.

        Pending WAL batches are *not* compacted — they are already
        durable and will replay on the next open.  A snapshot a reader
        still holds keeps answering; the store just stops referencing
        its loaded runs.
        """
        thread = self._compact_thread
        if (thread is not None and thread.is_alive()
                and thread is not threading.current_thread()):
            thread.join()
        with self._lock:
            self._snapshot = self._snapshot.replace(runs={})
            self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    # reading: LeafHolder's delegations to the current snapshot
    # ------------------------------------------------------------------
    def snapshot(self):
        """The current :class:`~repro.online.materialize.LeafSnapshot`
        (:meth:`LeafHolder.snapshot`); a closed store has none."""
        if self._closed:
            raise PlanError("cube store %r is closed" % (self.directory,))
        return self._snapshot

    def total_cells(self):
        """Stored cells across all leaves (from the manifest, no I/O)."""
        return sum(entry["cells"]
                   for entry in self._snapshot.entries.values())

    def loaded_leaves(self):
        """Leaves currently resident in memory (the hot set)."""
        snap = self._snapshot
        with snap.lock:
            return sorted(snap.runs)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def append(self, relation, batch_id=None):
        """Fold new rows into every stored leaf (delta maintenance).

        Mirrors ``LeafMaterialization.insert``: the leaves hold
        unfiltered minsup-1 cells, so appending is pure accumulation and
        ``generation`` is bumped so caches invalidate.  The batch is
        first made durable as a checksummed WAL record, then published
        as the last pending batch of the next snapshot — O(batch),
        independent of the store's size and leaf count; leaf files are
        only written by the (background) :meth:`compact`.  A code that
        does not fit a signed 64-bit integer is refused
        (:class:`SchemaError`) before anything is written.  ``batch_id``
        makes the append idempotent: a batch id the store already
        applied is acknowledged (``applied=False``) without being
        re-applied, so clients retry freely after a dropped ACK; without
        one an id is minted.  Returns an :class:`AppendResult`.
        """
        self.snapshot()  # refuses a closed store
        positions = relation.dim_indices(self.dims)
        with self._lock:
            if batch_id is None:
                batch_id = stamped_batch_id(obs.trace_id())
            batch_id = str(batch_id)
            if batch_id in self._applied_batches:
                obs.event("ingest.duplicate", batch_id=batch_id,
                          generation=self._applied_batches[batch_id])
                self._ingest_counter("repro_ingest_duplicates_total")
                return AppendResult(self.generation, False, batch_id)
            keyed = [tuple(row[p] for p in positions)
                     for row in relation.rows]
            codes = code_matrix(keyed, len(self.dims))
            measures = list(relation.measures)
            generation = self.generation + 1
            with obs.span("ingest.wal", rows=len(keyed)) as span:
                nbytes = self.wal.append(generation, batch_id, self.dims,
                                         keyed, measures)
                self._apply_delta(codes, measures, generation, batch_id)
                if span:
                    span.set(generation=generation, bytes=nbytes,
                             pending=len(self._snapshot.batches))
            self._ingest_counter("repro_ingest_appends_total")
            self._maybe_compact_locked()
            return AppendResult(generation, True, batch_id)

    def _apply_delta(self, codes, measures, generation, batch_id):
        """Publish the snapshot one batch on (a ``(dims x rows)`` code
        matrix in store-dims order, plus measures): the batch queues
        behind the pending ones and leaves merge it in when next read."""
        snap = self._snapshot
        batch = (codes, np.asarray(measures, dtype=np.float64))
        self._applied_batches[batch_id] = generation
        self._snapshot = snap.replace(
            batches=snap.batches + (batch,), generation=generation,
            total_rows=snap.total_rows + len(measures),
            total_measure=snap.total_measure + sum(measures))

    @staticmethod
    def _ingest_counter(name, amount=1, **labels):
        active = obs.current()
        if active is not None:
            active.registry.counter(
                name, labelnames=tuple(sorted(labels))).inc(amount, **labels)

    def _compaction_due(self):
        return (self.compact_after is not None
                and len(self._snapshot.batches) >= self.compact_after)

    def _maybe_compact_locked(self):
        """Kick a background compaction once enough batches are pending."""
        if self._compacting or not self._compaction_due():
            return
        self._compacting = True
        thread = threading.Thread(target=self._compact_background,
                                  name="cubestore-compact", daemon=True)
        self._compact_thread = thread
        thread.start()

    def _compact_background(self):
        try:
            # Appends carry on while a compaction runs: fold what they
            # left behind too, or a burst would sit in the WAL until
            # the next append came along.
            while self.compact() and self._compaction_due():
                pass
        except Exception as exc:  # the WAL keeps every batch durable
            obs.event("ingest.compact_failed", error=str(exc))
        finally:
            self._compacting = False

    def compact(self):
        """Fold the pending WAL batches into new leaf files (crash-safe).

        Pins the current snapshot and writes every leaf's merged run
        (base + the snapshot's batches) under that generation's names —
        off the write lock, so appends and reads carry on.  Then, under
        the lock, one atomic replace of the manifest commits (module
        docstring: what a crash on either side leaves); the snapshot
        over the new files, plus whatever was appended since the pin,
        is swapped in and the WAL truncated through the pinned
        generation.  The superseded files are unlinked last: every run
        they held was loaded to be merged, so a snapshot still pinned on
        them never needs the files.  Returns the number of batches
        compacted.
        """
        with self._compact_lock:
            snap = self.snapshot()
            n_batches = len(snap.batches)
            if not n_batches:
                return 0
            with obs.span("ingest.compact", batches=n_batches) as span:
                merged = {leaf: snap.leaf_items(leaf) for leaf in self.leaves}
                entries = {
                    leaf: write_leaf(self.directory, run, snap.generation)
                    for leaf, run in merged.items()}
                with self._lock:
                    window = dict(sorted(
                        self._applied_batches.items(), key=lambda kv: kv[1]
                    )[-APPLIED_BATCH_WINDOW:])
                    # The commit point: before this replace the new files
                    # are mere debris and the WAL still holds every
                    # batch; after it they are the store.  Batches newer
                    # than the pin stay in the WAL, not in the manifest.
                    self._write_manifest(snap, entries, {
                        batch: generation
                        for batch, generation in window.items()
                        if generation <= snap.generation})
                    obs.event("store.published", generation=snap.generation)
                    self._snapshot = self._snapshot.replace(
                        entries=entries, runs=merged,
                        batches=self._snapshot.batches[n_batches:])
                    self._applied_batches = window
                    self.wal.truncate_through(snap.generation)
                for entry in snap.entries.values():
                    os.unlink(os.path.join(self.directory, entry["file"]))
                if span:
                    span.set(generation=snap.generation)
            self._ingest_counter("repro_ingest_compactions_total")
            obs.event("ingest.compacted", batches=n_batches,
                      generation=snap.generation)
            return n_batches

    def wal_stats(self):
        """Ingestion state for health/stats endpoints (one snapshot's)."""
        snap = self._snapshot
        return {
            "pending_batches": len(snap.batches),
            "base_generation": snap.generation - len(snap.batches),
            "generation": snap.generation,
            "wal_bytes": self.wal.nbytes(),
            "compact_after": self.compact_after,
            "applied_window": len(self._applied_batches),
        }

    def wal_batches_since(self, since):
        """Pending batches newer than generation ``since``, for replica
        repair (the router's anti-entropy sweep re-delivers them).

        Returns ``{generation, base_generation, truncated, batches}``;
        ``truncated`` is True when ``since`` predates the oldest WAL
        record (the gap was compacted away and cannot be re-delivered).
        """
        with self._lock:  # the WAL's files move only under it
            snap = self.snapshot()
            base = snap.generation - len(snap.batches)
            return {
                "generation": snap.generation,
                "base_generation": base,
                "truncated": since < base,
                "batches": [record for record in self.wal.replay()
                            if record.generation > since],
            }

    @staticmethod
    def _manifest_dict(dims, leaves, entries, generation, total_rows,
                       total_measure, shard=None, applied_batches=None):
        # One leaf order for every build path (lattice order: most
        # dimensions first, then schema order), so the same relation
        # gives the same manifest bytes whichever backend wrote it.
        position = {name: i for i, name in enumerate(dims)}
        leaves = sorted(leaves, key=lambda leaf: (
            -len(leaf), [position[name] for name in leaf]))
        return {
            "format": STORE_FORMAT,
            "format_version": STORE_FORMAT_VERSION,
            "dims": list(dims),
            "generation": generation,
            "total_rows": total_rows,
            "total_measure": total_measure,
            "applied_batches": dict(applied_batches or {}),
            "shard": ({"index": shard[0], "of": shard[1]}
                      if shard is not None else None),
            "leaves": [
                {
                    "cuboid": list(leaf),
                    "file": entries[leaf]["file"],
                    "cells": entries[leaf]["cells"],
                    "bytes": entries[leaf]["bytes"],
                    "sha256": entries[leaf]["sha256"],
                }
                for leaf in leaves
            ],
        }

    def _write_manifest(self, snap, entries, applied_batches):
        """Replace the manifest: ``snap``'s generation and totals over
        the leaf files ``entries`` names."""
        _write_json(os.path.join(self.directory, MANIFEST), self._manifest_dict(
            self.dims, self.leaves, entries,
            generation=snap.generation,
            total_rows=snap.total_rows,
            total_measure=snap.total_measure,
            shard=self.shard,
            applied_batches=applied_batches,
        ))

    def __repr__(self):
        shard = (", shard=%d/%d" % self.shard) if self.shard else ""
        return "CubeStore(dims=%r, leaves=%d, rows=%d, generation=%d%s)" % (
            self.dims,
            len(self.leaves),
            self.total_rows,
            self.generation,
            shard,
        )
