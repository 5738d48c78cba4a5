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
      manifest.json        # dims, generation, per-leaf size + checksum
      journal.json         # only mid-compaction: the pending manifest
      A_D.run, B_D.run ... # one encoded CellRun per leaf
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
offending leaf.  Debris from interrupted writes (``*.tmp.*``,
``*.staged``, leaf files no manifest references) is swept on open.

**One append path.**  ``append`` never touches a leaf file: the batch is
made durable as one checksummed write-ahead-log record
(:mod:`repro.serve.ingest`) and kept, as columns, in the list of
*pending batches* — O(batch), whatever the store's size or leaf count.
The first read of a leaf after an append projects the pending rows onto
the leaf's dimensions and merges them into its base run (cached until
the next append).  A ``batch_id`` the store already applied is
acknowledged, never re-applied.  Every store appends this way, whether
it came from ``open``, ``build``, ``from_materialization`` or
``assemble``; ``wal/`` appears on the first append.

**One leaf writer.**  Every leaf file is streamed by :class:`LeafWriter`.
After the build, :meth:`CubeStore.compact` is the only code that
rewrites leaf files, and it is *journalled two-phase*: every merged
leaf is staged next to the live one, a journal naming the complete next
state is written atomically (the commit point), and only then are the
live files swung and the WAL truncated.  A crash before the journal
rolls back (staged files are swept, the WAL replays the batches on
reopen); a crash after it rolls forward (the swing is completed and the
now-stale WAL records are pruned) — never a mix, nothing lost, nothing
counted twice.  Rewrite-per-append, where wanted, is
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
from ..core.thresholds import as_threshold
from ..errors import PlanError, SchemaError, StoreCorruptError, WalCorruptError
from ..lattice.lattice import CubeLattice
from .ingest import WriteAheadLog, chaos_kill, stamped_batch_id

STORE_FORMAT = "repro-cube-store/1"
STORE_FORMAT_VERSION = 3

#: Extension of a leaf file (an encoded :class:`CellRun`).
LEAF_SUFFIX = ".run"

#: The compaction journal: present only between a compaction's commit
#: point and its completed leaf swing; holds the complete next manifest.
JOURNAL = "journal.json"
JOURNAL_FORMAT = "repro-cube-store-journal/1"

#: Suffix of a staged (phase-1) leaf rewrite awaiting the journal commit.
STAGED_SUFFIX = ".staged"

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


def _leaf_filename(cuboid):
    return "_".join(cuboid) + LEAF_SUFFIX


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


def _write_json(path, payload):
    """Atomically publish a manifest or journal."""
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
    killed writer never leaves a partial leaf in the store.  ``suffix``
    stages the file beside the live one (compaction's phase 1).
    """

    def __init__(self, directory, cuboid, suffix=""):
        self.cuboid = tuple(cuboid)
        self.filename = _leaf_filename(self.cuboid)
        self.path = os.path.join(str(directory), self.filename + suffix)
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


def write_leaf(directory, run, suffix=""):
    """Write ``run`` as its leaf's file; returns the manifest entry."""
    writer = LeafWriter(directory, run.dims, suffix)
    try:
        writer.add(run.codes, run.counts, run.sums)
        return writer.commit()
    except BaseException:
        writer.abort()
        raise


class CubeStore:
    """Persistent, incrementally maintainable leaf-cuboid store.

    A store may hold *all* leaves of its dimension set or just one
    shard's worth (see :mod:`repro.serve.cluster`): ``build`` with
    ``shard=(i, n)`` writes only the leaves the stable placement hash
    assigns to shard ``i`` of ``n``, and the manifest records the
    placement so a later open under a different sharding is refused
    instead of silently serving the wrong subset.  ``shard`` is ``None``
    for an unsharded store.
    """

    def __init__(self, directory, manifest):
        self.directory = str(directory)
        self._check_manifest(manifest)
        self.dims = tuple(manifest["dims"])
        self._lattice = CubeLattice(self.dims)
        shard = manifest.get("shard")
        self.shard = ((int(shard["index"]), int(shard["of"]))
                      if shard else None)
        #: integrity level this store was opened at ("off" for a fresh
        #: build); surfaced on the server's /healthz
        self.verify_mode = "off"
        self.generation = int(manifest["generation"])
        self.total_rows = int(manifest["total_rows"])
        self.total_measure = float(manifest["total_measure"])
        #: leaf cuboid -> manifest entry (file, cells, bytes, sha256)
        self._entries = {}
        self.leaves = []
        for entry in manifest["leaves"]:
            cuboid = tuple(entry["cuboid"])
            self.leaves.append(cuboid)
            self._entries[cuboid] = {
                "file": entry["file"],
                "cells": int(entry["cells"]),
                "bytes": int(entry["bytes"]),
                "sha256": entry["sha256"],
            }
        self._leaf_set = frozenset(self.leaves)
        self._runs = {}  # leaf -> base CellRun (what the file holds), lazy
        self._lock = threading.RLock()
        self._closed = False
        #: the write-ahead log every append goes through
        self.wal = WriteAheadLog(os.path.join(self.directory, WAL_DIR))
        self.compact_after = DEFAULT_COMPACT_AFTER
        #: every WAL'd batch not yet compacted, as columns, in generation
        #: order: [((dims x rows) code matrix, measures)]
        self._pending_rows = []
        self._pending_columns = None  # the batches concatenated, lazy
        self._merged = {}  # leaf -> base run (+) pending rows, lazy
        #: WAL'd batches awaiting compaction: [{generation, batch_id, rows}]
        self._pending = []
        #: batch_id -> generation for every applied batch still in the
        #: idempotence window (manifest window + pending WAL records)
        self._applied_batches = {
            str(batch): int(generation)
            for batch, generation in manifest.get("applied_batches", {}).items()
        }
        self._compacting = False
        self._compact_thread = None
        #: what `open` had to repair: rolled_forward / orphans_removed /
        #: salvaged, plus wal_replayed / wal_pruned counts (a fresh
        #: build repaired nothing)
        self.recovery = {
            "rolled_forward": False, "orphans_removed": [], "salvaged": [],
        }

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
        entries = {}
        loaded = {}
        for leaf in leaves:
            with obs.span("store.write_leaf") as span:
                run = loaded[leaf] = materialization.leaf_items(leaf)
                entry = entries[leaf] = write_leaf(directory, run)
                if span:
                    span.set(leaf="/".join(leaf), cells=len(run),
                             bytes=entry["bytes"])
        store = cls._publish(directory, cls._manifest_dict(
            materialization.dims, leaves, entries,
            generation=1,
            total_rows=materialization.total_rows,
            total_measure=materialization.total_measure,
            shard=shard,
        ))
        store._runs.update(loaded)
        return store

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
    def _publish(cls, directory, manifest):
        """Publish a fresh build's manifest; returns the store open.

        The build supersedes whatever the directory held, so the WAL
        records of a store it replaces are dropped first — they must
        not replay onto cells that never saw their base.
        """
        store = cls(directory, manifest)
        store.wal.truncate_through(max(store.wal.generations(), default=0))
        _write_json(os.path.join(directory, MANIFEST), manifest)
        return store

    @classmethod
    def open(cls, directory, verify="quick", salvage=True, wal=True,
             compact_after=DEFAULT_COMPACT_AFTER):
        """Attach to a store previously written by :meth:`build`.

        ``verify`` controls the integrity pass: ``"quick"`` (default)
        checks every leaf file's existence and byte size against the
        manifest, ``"full"`` re-hashes the content, ``"off"`` skips the
        pass (an interrupted compaction is still rolled forward or back —
        generation mixing is never allowed).  Damaged leaves are rebuilt
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
        recovery = {
            "rolled_forward": False, "orphans_removed": [], "salvaged": [],
        }
        manifest = cls._recover_journal(directory, recovery)
        if manifest is None:
            manifest = _read_manifest(directory)
        store = cls(directory, manifest)
        store.recovery = recovery
        store.verify_mode = verify
        if verify != "off":
            store._sweep_orphans(recovery)
            store._verify_leaves(verify, salvage, recovery)
        store.compact_after = (None if compact_after is None
                               else max(1, int(compact_after)))
        store._replay_wal(recovery)
        if (recovery["rolled_forward"] or recovery["orphans_removed"]
                or recovery["salvaged"]):
            obs.event("store.recovered",
                      rolled_forward=recovery["rolled_forward"],
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
        if os.path.exists(os.path.join(directory, JOURNAL)):
            raise SchemaError(
                "%s holds the journal of an interrupted compaction; open "
                "it once with the release that wrote it, then migrate"
                % directory)
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
        # (a crash between the manifest swing and WAL truncation).
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
    @classmethod
    def _recover_journal(cls, directory, recovery):
        """Complete (or discard) an append interrupted mid-commit.

        Returns the rolled-forward manifest, or ``None`` when there is
        no journal (the common case).  The journal is only ever written
        *after* every staged leaf file landed, so roll-forward can
        always finish the swing: each leaf either still has its staged
        file (swing it now) or was already swung (its content matches
        the journalled checksum).
        """
        journal_path = os.path.join(directory, JOURNAL)
        try:
            with open(journal_path) as handle:
                journal = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            # The journal is written atomically, so a malformed one is
            # foreign debris; without a valid commit record, roll back.
            os.unlink(journal_path)
            return None
        if journal.get("format") != JOURNAL_FORMAT:
            raise SchemaError(
                "unknown cube-store journal format %r" % (journal.get("format"),)
            )
        manifest = journal["manifest"]
        cls._check_manifest(manifest)
        for entry in manifest["leaves"]:
            path = os.path.join(directory, entry["file"])
            staged = path + STAGED_SUFFIX
            if os.path.exists(staged):
                os.replace(staged, path)
            elif not (os.path.exists(path)
                      and os.path.getsize(path) == int(entry["bytes"])
                      and _sha256_file(path) == entry["sha256"]):
                raise StoreCorruptError(
                    tuple(entry["cuboid"]),
                    "journal roll-forward found neither the staged file "
                    "nor the committed content",
                    directory,
                )
        _write_json(os.path.join(directory, MANIFEST), manifest)
        os.unlink(journal_path)
        recovery["rolled_forward"] = True
        return manifest

    def _sweep_orphans(self, recovery):
        """Remove write debris the manifest does not reference.

        Staged files and ``atomic_write`` temps are always an
        interrupted writer's leftovers (a journalled writer's staged
        files were consumed by roll-forward before this runs); ``.run``
        and ``.csv`` files no manifest entry names are stale leaves from
        a superseded generation or a finished ``store migrate``.
        Anything else is left alone.
        """
        known = {MANIFEST, JOURNAL}
        known.update(entry["file"] for entry in self._entries.values())
        for name in sorted(os.listdir(self.directory)):
            if name in known:
                continue
            path = os.path.join(self.directory, name)
            if not os.path.isfile(path):
                continue
            if (".tmp." in name
                    or name.endswith((STAGED_SUFFIX, LEAF_SUFFIX, ".csv"))):
                os.unlink(path)
                recovery["orphans_removed"].append(name)

    def _leaf_damage(self, leaf, level):
        """Why the leaf's file fails verification, or ``None`` if intact."""
        entry = self._entries[leaf]
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
        damaged = []
        for leaf in self.leaves:
            reason = self._leaf_damage(leaf, level)
            if reason is not None:
                damaged.append((leaf, reason))
        if not damaged:
            return
        root = self.dims
        if root not in self._leaf_set:
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
        with self._lock:
            for leaf, _reason in damaged:
                with obs.span("store.salvage", leaf=list(leaf)):
                    self._rebuild_leaf(leaf)
                recovery["salvaged"].append(leaf)
            self._write_manifest()

    def _rebuild_leaf(self, leaf):
        """Regenerate one leaf by projecting the (intact) root leaf.

        Leaves hold unfiltered minsup-1 cells and count/sum are
        distributive, so projecting the root leaf's cells onto the
        damaged leaf's dimensions reproduces its content exactly.
        """
        run = self._base_run(self.dims).project(
            [self.dims.index(d) for d in leaf])
        self._entries[leaf] = write_leaf(self.directory, run)
        self._runs[leaf] = run

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self):
        """Release in-memory leaf data; further queries raise.

        Pending WAL batches are *not* compacted — they are already
        durable and will replay on the next open.
        """
        thread = self._compact_thread
        if (thread is not None and thread.is_alive()
                and thread is not threading.current_thread()):
            thread.join()
        with self._lock:
            self._runs.clear()
            self._merged.clear()
            self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _check_open(self):
        if self._closed:
            raise PlanError("cube store %r is closed" % (self.directory,))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def canonical(self, cuboid):
        """Normalize a cuboid to the store's schema order."""
        return self._lattice.canonical(cuboid)

    def covering_leaf(self, cuboid):
        """The stored leaf that has (canonical) ``cuboid`` as a prefix."""
        cuboid = self._lattice.canonical(cuboid)
        if cuboid and cuboid[-1] == self.dims[-1]:
            return cuboid
        candidate = cuboid + (self.dims[-1],)
        if candidate in self._leaf_set:
            return candidate
        if self.shard is not None:
            raise PlanError(
                "no stored leaf covers cuboid %r on shard %d/%d (placement "
                "assigns its covering leaf to another shard)"
                % (cuboid, self.shard[0], self.shard[1]))
        raise PlanError("no stored leaf covers cuboid %r" % (cuboid,))

    def total_cells(self):
        """Stored cells across all leaves (from the manifest, no I/O)."""
        return sum(entry["cells"] for entry in self._entries.values())

    def loaded_leaves(self):
        """Leaves currently resident in memory (the hot set)."""
        with self._lock:
            return sorted(self._runs)

    def leaf_items(self, leaf):
        """The leaf's cells as one :class:`CellRun`, loading from disk
        on first use.

        This is the *merged view*: the on-disk base run plus the rows of
        every not-yet-compacted append, projected onto the leaf's
        dimensions and merged in on the first read after an append
        (cached until the next one or a compaction) — so append cost
        never includes a leaf rewrite.
        """
        self._check_open()
        if not self._pending:
            return self._base_run(leaf)
        with self._lock:
            if not self._pending:
                return self._base_run(leaf)
            merged = self._merged.get(leaf)
            if merged is None:
                base = self._base_run(leaf)
                with obs.span("store.merge_delta") as span:
                    if self._pending_columns is None:
                        self._pending_columns = tuple(
                            np.concatenate(column, axis=-1)
                            for column in zip(*self._pending_rows))
                    codes, measures = self._pending_columns
                    positions = [self.dims.index(d) for d in leaf]
                    merged = self._merged[leaf] = base.add_rows(
                        codes[positions], measures)
                    if span:
                        span.set(leaf="/".join(leaf), base_cells=len(base),
                                 pending_rows=len(measures))
            return merged

    def _base_run(self, leaf):
        """The leaf's compacted on-disk cells (no pending rows)."""
        run = self._runs.get(leaf)
        if run is not None:
            return run
        with self._lock:
            run = self._runs.get(leaf)
            if run is not None:
                return run
            entry = self._entries.get(leaf)
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
            self._runs[leaf] = run
            return run

    def query(self, cuboid, minsup=1):
        """Answer ``GROUP BY cuboid HAVING <threshold>`` from the store.

        One :meth:`CellRun.group_by
        <repro.core.columnar.CellRun.group_by>` over the covering leaf —
        the very call ``LeafMaterialization.query`` makes.  Returns
        ``{cell: (count, sum)}``.
        """
        self._check_open()
        threshold = as_threshold(minsup)
        cuboid = self._lattice.canonical(cuboid)
        with obs.span("store.query", cuboid="/".join(cuboid)) as span:
            if not cuboid:
                if threshold.qualifies(self.total_rows, self.total_measure):
                    return {(): (self.total_rows, self.total_measure)}
                return {}
            run = self.leaf_items(self.covering_leaf(cuboid))
            out = run.group_by(len(cuboid), threshold)
            if span:
                span.set(cells=len(out))
            return out

    def owned_cuboids(self):
        """Every cuboid whose *covering leaf* this store holds.

        Each stored leaf ``L`` covers exactly two cuboids whose
        ``covering_leaf`` is ``L`` itself: ``L`` and ``L[:-1]`` (for the
        last-dimension-only leaf that second cuboid is ``()``).  Across
        the shards of a :class:`~repro.serve.cluster.ShardMap` these
        sets partition the whole lattice, so a fan-out to all shards
        covers every cuboid exactly once.
        """
        owned = []
        for leaf in self.leaves:
            owned.append(leaf)
            owned.append(leaf[:-1])
        return owned

    def iceberg(self, minsup=1):
        """The iceberg cube over every cuboid this store covers.

        Returns ``{cuboid: {cell: (count, sum)}}`` restricted to the
        cuboids in :meth:`owned_cuboids` — the store's share of the full
        cube.  An unsharded store answers the entire lattice.
        """
        return {cuboid: self.query(cuboid, minsup=minsup)
                for cuboid in self.owned_cuboids()}

    def point(self, cuboid, cell, minsup=1):
        """One cell of one cuboid: ``(count, sum)`` or ``None`` — a
        ``searchsorted`` per coordinate on the covering leaf's run
        (:meth:`CellRun.lookup <repro.core.columnar.CellRun.lookup>`)."""
        self._check_open()
        threshold = as_threshold(minsup)
        cuboid = self._lattice.canonical(cuboid)
        if not cuboid:
            agg = (self.total_rows, self.total_measure)
            return agg if threshold.qualifies(*agg) else None
        cell = tuple(cell)
        if len(cell) != len(cuboid):
            raise SchemaError(
                "cell %r has %d coordinates, cuboid %r has %d dimensions"
                % (cell, len(cell), cuboid, len(cuboid))
            )
        agg = self.leaf_items(self.covering_leaf(cuboid)).lookup(cell)
        if agg is not None and threshold.qualifies(*agg):
            return agg
        return None

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def append(self, relation, batch_id=None):
        """Fold new rows into every stored leaf (delta maintenance).

        Mirrors ``LeafMaterialization.insert``: the leaves hold
        unfiltered minsup-1 cells, so appending is pure accumulation and
        ``generation`` is bumped so caches invalidate.  The batch is
        first made durable as a checksummed WAL record, then joins the
        pending batches as columns — O(batch), independent of the
        store's size and leaf count; leaf files are only rewritten by
        the (background) :meth:`compact`.  A code that does not fit a
        signed 64-bit integer is refused (:class:`SchemaError`) before
        anything is written.  ``batch_id`` makes the append idempotent: a
        batch id the store already applied is acknowledged
        (``applied=False``) without being re-applied, so clients retry
        freely after a dropped ACK; without one an id is minted.
        Returns an :class:`AppendResult`.
        """
        self._check_open()
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
                             pending=len(self._pending))
            self._ingest_counter("repro_ingest_appends_total")
            self._maybe_compact_locked()
            return AppendResult(generation, True, batch_id)

    def _apply_delta(self, codes, measures, generation, batch_id):
        """Queue one batch (a ``(dims x rows)`` code matrix in store-dims
        order, plus measures) behind the pending ones and advance the
        generation; leaves merge it in when next read."""
        self._pending_rows.append(
            (codes, np.asarray(measures, dtype=np.float64)))
        self._pending_columns = None
        self._merged.clear()
        self._pending.append({"generation": generation,
                              "batch_id": batch_id,
                              "rows": len(measures)})
        self._applied_batches[batch_id] = generation
        self.total_rows += len(measures)
        self.total_measure += sum(measures)
        self.generation = generation

    @staticmethod
    def _ingest_counter(name, amount=1, **labels):
        active = obs.current()
        if active is not None:
            active.registry.counter(
                name, labelnames=tuple(sorted(labels))).inc(amount, **labels)

    def _maybe_compact_locked(self):
        """Kick a background compaction once enough batches are pending."""
        if (self.compact_after is None or self._compacting
                or len(self._pending) < self.compact_after):
            return
        self._compacting = True
        thread = threading.Thread(target=self._compact_background,
                                  name="cubestore-compact", daemon=True)
        self._compact_thread = thread
        thread.start()

    def _compact_background(self):
        try:
            self.compact()
        except Exception as exc:  # the WAL keeps every batch durable
            obs.event("ingest.compact_failed", error=str(exc))
        finally:
            self._compacting = False

    def compact(self):
        """Fold every pending WAL batch into the leaf files (crash-safe).

        The journalled two-phase rewrite: every leaf's merged run (base
        + pending rows, :meth:`leaf_items`) is staged, a journal naming
        the complete state is committed
        atomically, the live files are swung, and only then is the WAL
        truncated.  A crash before the journal rolls *back* (the WAL
        replays the batches on reopen); after it rolls *forward* (the
        replayed-in manifest generation makes the WAL records stale and
        they are pruned).  Either way nothing is lost or double-counted.
        Returns the number of batches compacted.
        """
        self._check_open()
        with self._lock:
            if not self._pending:
                return 0
            n_batches = len(self._pending)
            with obs.span("ingest.compact", batches=n_batches) as span:
                # Phase 1: stage every rewritten leaf next to the live one.
                merged = {leaf: self.leaf_items(leaf) for leaf in self.leaves}
                new_entries = {
                    leaf: write_leaf(self.directory, run, STAGED_SUFFIX)
                    for leaf, run in merged.items()}
                chaos_kill("compact.staged")
                window = dict(sorted(
                    self._applied_batches.items(), key=lambda kv: kv[1]
                )[-APPLIED_BATCH_WINDOW:])
                manifest = self._manifest_dict(
                    self.dims, self.leaves, new_entries,
                    generation=self.generation,
                    total_rows=self.total_rows,
                    total_measure=self.total_measure,
                    shard=self.shard,
                    applied_batches=window,
                )
                # Commit point: once this journal lands the compacted
                # state is durable; before it, the staged files are mere
                # debris and the WAL still holds every batch.
                journal = {"format": JOURNAL_FORMAT,
                           "generation": manifest["generation"],
                           "manifest": manifest}
                _write_json(os.path.join(self.directory, JOURNAL), journal)
                obs.event("store.journal_commit",
                          generation=manifest["generation"])
                chaos_kill("compact.journalled")
                # Phase 2: swing the leaves, rewrite the manifest, drop
                # the journal.  A crash in here is rolled forward on open.
                for entry in new_entries.values():
                    path = os.path.join(self.directory, entry["file"])
                    os.replace(path + STAGED_SUFFIX, path)
                _write_json(os.path.join(self.directory, MANIFEST), manifest)
                os.unlink(os.path.join(self.directory, JOURNAL))
                self._entries = new_entries
                self._runs = merged
                self._merged = {}
                self._pending_rows = []
                self._pending_columns = None
                self._pending = []
                self._applied_batches = window
                self.wal.truncate_through(self.generation)
                if span:
                    span.set(generation=self.generation)
            self._ingest_counter("repro_ingest_compactions_total")
            obs.event("ingest.compacted", batches=n_batches,
                      generation=self.generation)
            return n_batches

    def wal_stats(self):
        """Ingestion state for health/stats endpoints."""
        with self._lock:
            return {
                "pending_batches": len(self._pending),
                "base_generation": self.generation - len(self._pending),
                "generation": self.generation,
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
        self._check_open()
        with self._lock:
            base = self.generation - len(self._pending)
            batches = [record for record in self.wal.replay()
                       if record.generation > since]
            return {
                "generation": self.generation,
                "base_generation": base,
                "truncated": since < base,
                "batches": batches,
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

    def _write_manifest(self):
        _write_json(os.path.join(self.directory, MANIFEST), self._manifest_dict(
            self.dims, self.leaves, self._entries,
            generation=self.generation,
            total_rows=self.total_rows,
            total_measure=self.total_measure,
            shard=self.shard,
            applied_batches=self._applied_batches,
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
