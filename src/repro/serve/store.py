"""A persistent store of materialized leaf cuboids.

:class:`~repro.online.materialize.LeafMaterialization` holds the BUC
processing tree's leaf cuboids in memory; a :class:`CubeStore` is the
same idea made durable.  ``build`` precomputes the leaves (minsup 1)
and writes one file per leaf under a directory; ``open`` attaches to a
previously built store, so a process restart pays a file read instead
of the full precompute.

On-disk layout (extending :mod:`repro.core.export`'s one-file-per-cuboid
manifest convention)::

    <directory>/
      manifest.json        # dims, generation, per-leaf index + checksums
      journal.json         # only mid-compaction: the pending manifest
      A_D.csv, B_D.csv ... # one file per leaf, rows SORTED by coords
      wal/                 # appended batches not yet compacted

Each leaf file is written in cell-coordinate order and the manifest
carries, per leaf, a *prefix offset index*: for every distinct value of
the leaf's first dimension, the byte offset of its first row and the
number of rows in the run.  Because cells sharing a prefix are
contiguous in sorted order, a point query is an index lookup + seek +
contiguous scan of one run — never a full-leaf sort, and (for point
lookups on an unloaded leaf) never a full-leaf read.  Group-by queries
are one ordered pass over the presorted leaf, exactly like
``LeafMaterialization.query`` but without the sort step.

**Crash safety.**  The manifest records every leaf's byte size and
SHA-256, and :meth:`CubeStore.open` verifies them (``verify="quick"``
checks sizes, ``"full"`` re-hashes the content).  A truncated, corrupted
or missing leaf is *salvaged* — rebuilt by re-aggregating the root leaf,
which covers every other leaf at minsup 1 — or, when the root leaf
itself is damaged, :class:`~repro.errors.StoreCorruptError` names the
offending leaf.  Debris from interrupted writes (``*.tmp.*``,
``*.staged``, leaf files no manifest references) is swept on open.

**One append path.**  ``append`` never touches a leaf file: the batch is
made durable as one checksummed write-ahead-log record
(:mod:`repro.serve.ingest`), then folded into an in-memory *delta run*
per leaf — O(batch), whatever the store's size — and reads see base run
(+) delta run merged lazily.  A ``batch_id`` the store already applied
is acknowledged, never re-applied.  Every store appends this way,
whether it came from ``open``, ``build``, ``from_materialization`` or
``assemble``; ``wal/`` appears on the first append.

**One leaf writer.**  After the build, :meth:`CubeStore.compact` is the
only code that rewrites leaf files, and it is *journalled two-phase*:
every merged leaf is staged next to the live one, a journal naming the
complete next state is written atomically (the commit point), and only
then are the live files swung and the WAL truncated.  A crash before
the journal rolls back (staged files are swept, the WAL replays the
batches on reopen); a crash after it rolls forward (the swing is
completed and the now-stale WAL records are pruned) — never a mix,
nothing lost, nothing counted twice.  Rewrite-per-append, where wanted,
is ``append(); compact()``.
"""

import hashlib
import json
import os
import threading
from bisect import bisect_left
from collections import namedtuple

from .. import obs
from ..core.export import MANIFEST, atomic_write
from ..core.thresholds import as_threshold
from ..errors import PlanError, SchemaError, StoreCorruptError, WalCorruptError
from ..lattice.lattice import CubeLattice
from .ingest import WriteAheadLog, chaos_kill, stamped_batch_id

STORE_FORMAT = "repro-cube-store/1"
STORE_FORMAT_VERSION = 2

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
    return "_".join(cuboid) + ".csv"


def _sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _encode_leaf(cuboid, items):
    """Serialize sorted leaf items; returns (bytes, prefix offset index).

    The index maps each distinct first-coordinate value to
    ``[byte_offset, run_rows]`` — the contiguous run of rows starting
    with that value.
    """
    header = (",".join(list(cuboid) + ["count", "sum"]) + "\n").encode()
    chunks = [header]
    offset = len(header)
    index = {}
    for cell, (count, value) in items:
        line = ",".join(
            [str(coord) for coord in cell] + [str(count), repr(value)]
        ).encode() + b"\n"
        run = index.get(cell[0])
        if run is None:
            index[cell[0]] = [offset, 1]
        else:
            run[1] += 1
        offset += len(line)
        chunks.append(line)
    return b"".join(chunks), index


def _parse_rows(lines, width):
    """Decode leaf rows (bytes) into ``(cell, (count, sum))`` items."""
    items = []
    for raw in lines:
        parts = raw.decode().rstrip("\n").split(",")
        if len(parts) != width + 2:
            raise SchemaError(
                "leaf row %r has %d fields, expected %d"
                % (raw, len(parts), width + 2)
            )
        cell = tuple(int(p) for p in parts[:width])
        items.append((cell, (int(parts[width]), float(parts[width + 1]))))
    return items


def _merge_sorted(items, delta_items):
    """Merge two cell-sorted item lists, summing aggregates on equal cells."""
    merged = []
    i = j = 0
    while i < len(items) and j < len(delta_items):
        cell_a, agg_a = items[i]
        cell_b, agg_b = delta_items[j]
        if cell_a == cell_b:
            merged.append((cell_a, (agg_a[0] + agg_b[0], agg_a[1] + agg_b[1])))
            i += 1
            j += 1
        elif cell_a < cell_b:
            merged.append(items[i])
            i += 1
        else:
            merged.append(delta_items[j])
            j += 1
    merged.extend(items[i:])
    merged.extend(delta_items[j:])
    return merged


def _write_json(path, payload):
    """Atomically publish a manifest or journal."""
    atomic_write(
        path,
        lambda handle: json.dump(payload, handle, indent=2, sort_keys=True),
    )


def _leaf_entry(cuboid, filename, data, index, n_cells):
    """One manifest entry (the internal, typed form)."""
    return {
        "file": filename,
        "cells": n_cells,
        "bytes": len(data),
        "sha256": _sha256_bytes(data),
        "index": {k: tuple(v) for k, v in index.items()},
    }


class LeafWriter:
    """Stream one leaf cuboid to disk without holding its cells in RAM.

    Byte-for-byte identical to :func:`_encode_leaf` — same header, same
    row formatting — but rows are appended one at a time, with the
    sha256, byte offsets and first-coordinate index maintained
    incrementally.  The file is written under an ``atomic_write``-style
    temp name; nothing is visible at the real path until
    :meth:`commit`, so a killed writer never leaves a partial leaf in
    the store.  Cells must arrive in sorted cell order (the caller's
    merge already guarantees it for the MapReduce reducers).
    """

    def __init__(self, directory, cuboid):
        self.cuboid = tuple(cuboid)
        self.filename = _leaf_filename(self.cuboid)
        self.path = os.path.join(str(directory), self.filename)
        self._tmp = "%s.tmp.%d" % (self.path, os.getpid())
        header = (",".join(list(self.cuboid) + ["count", "sum"]) + "\n").encode()
        self._handle = open(self._tmp, "wb")
        self._handle.write(header)
        self._digest = hashlib.sha256(header)
        self._offset = len(header)
        self.index = {}
        self.cells = 0

    def add(self, cell, count, value):
        line = ",".join(
            [str(coord) for coord in cell] + [str(count), repr(value)]
        ).encode() + b"\n"
        run = self.index.get(cell[0])
        if run is None:
            self.index[cell[0]] = [self._offset, 1]
        else:
            run[1] += 1
        self._handle.write(line)
        self._digest.update(line)
        self._offset += len(line)
        self.cells += 1

    def commit(self):
        """Publish the leaf atomically; returns its manifest entry."""
        self._handle.close()
        os.replace(self._tmp, self.path)
        return {
            "file": self.filename,
            "cells": self.cells,
            "bytes": self._offset,
            "sha256": self._digest.hexdigest(),
            "index": {k: tuple(v) for k, v in self.index.items()},
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
        #: leaf cuboid -> manifest entry (file, cells, checksums, index)
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
                "index": {int(k): tuple(v) for k, v in entry["index"].items()},
            }
        self._leaf_set = frozenset(self.leaves)
        self._items = {}  # leaf -> sorted base [(cell, (count, sum))], lazy
        self._lock = threading.RLock()
        self._closed = False
        #: the write-ahead log every append goes through
        self.wal = WriteAheadLog(os.path.join(self.directory, WAL_DIR))
        self.compact_after = DEFAULT_COMPACT_AFTER
        #: leaf -> sorted delta items accumulated from WAL'd appends but
        #: not yet compacted into the leaf files
        self._delta_items = {}
        self._merged = {}  # leaf -> base (+) delta, lazy merged view
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
              backend="simulated", shard=None, workers=None, use_shm=True):
        """Precompute the leaf cuboids of ``relation`` and persist them.

        Runs the same minsup-1 leaf precompute as
        :class:`~repro.online.materialize.LeafMaterialization`, then
        writes the store and returns it open.  ``backend="local"``
        aggregates the leaves over a columnar frame at machine speed
        instead of through the simulated cluster — same cells, much
        faster ingest (the CLI's default).  ``workers`` > 1 spreads the
        local-backend leaf aggregation over the supervised process pool
        with shared-memory transport (``use_shm=False`` keeps the pool
        but ships pickles).

        ``shard=(i, n)`` builds one shard of a sharded serving tier:
        only the leaves :class:`~repro.serve.cluster.ShardMap` assigns
        to shard ``i`` of ``n`` are computed and written, and the
        placement is recorded in the manifest.
        """
        from ..online.materialize import LeafMaterialization

        leaves = None
        if shard is not None:
            from .cluster import ShardMap

            index, of = int(shard[0]), int(shard[1])
            shard_map = ShardMap(tuple(dims) if dims else relation.dims, of)
            leaves = shard_map.leaves_for(index)
            shard = (index, of)
        materialization = LeafMaterialization(
            relation, dims=dims, cluster_spec=cluster_spec, cost_model=cost_model,
            backend=backend, leaves=leaves, workers=workers, use_shm=use_shm,
        )
        return cls.from_materialization(materialization, directory, shard=shard)

    @classmethod
    def from_materialization(cls, materialization, directory, shard=None):
        """Persist an in-memory :class:`LeafMaterialization` as a store."""
        directory = str(directory)
        os.makedirs(directory, exist_ok=True)
        entries = {}
        loaded = {}
        for leaf in materialization.leaves:
            with obs.span("store.write_leaf") as span:
                items = list(materialization._items(leaf))
                filename = _leaf_filename(leaf)
                data, index = _encode_leaf(leaf, items)
                atomic_write(
                    os.path.join(directory, filename),
                    lambda handle, data=data: handle.write(data),
                    binary=True,
                )
                entries[leaf] = _leaf_entry(leaf, filename, data, index,
                                            len(items))
                loaded[leaf] = items
                if span:
                    span.set(leaf="/".join(leaf), cells=len(items),
                             bytes=len(data))
        store = cls._publish(directory, cls._manifest_dict(
            materialization.dims, materialization.leaves, entries,
            generation=1,
            total_rows=materialization.total_rows,
            total_measure=materialization.total_measure,
            shard=shard,
        ))
        store._items.update(loaded)
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
            manifest_path = os.path.join(directory, MANIFEST)
            try:
                with open(manifest_path) as handle:
                    manifest = json.load(handle)
            except FileNotFoundError:
                raise SchemaError(
                    "no cube-store manifest at %r" % (manifest_path,)
                ) from None
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
            self._apply_delta(record.rows, record.measures,
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
        files were consumed by roll-forward before this runs); ``.csv``
        files no manifest entry names are stale leaves from a superseded
        generation.  Anything else is left alone.
        """
        known = {MANIFEST, JOURNAL}
        known.update(entry["file"] for entry in self._entries.values())
        for name in sorted(os.listdir(self.directory)):
            if name in known:
                continue
            path = os.path.join(self.directory, name)
            if not os.path.isfile(path):
                continue
            if (".tmp." in name or name.endswith(STAGED_SUFFIX)
                    or name.endswith(".csv")):
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
        """Regenerate one leaf by re-aggregating the (intact) root leaf.

        Leaves hold unfiltered minsup-1 cells and count/sum are
        distributive, so projecting the root leaf's cells onto the
        damaged leaf's dimensions reproduces its content exactly.
        """
        positions = [self.dims.index(d) for d in leaf]
        accumulated = {}
        for cell, (count, value) in self.leaf_items(self.dims):
            sub = tuple(cell[p] for p in positions)
            acc = accumulated.get(sub)
            if acc is None:
                accumulated[sub] = [count, value]
            else:
                acc[0] += count
                acc[1] += value
        items = sorted(
            (cell, (acc[0], acc[1])) for cell, acc in accumulated.items()
        )
        entry = self._entries[leaf]
        data, index = _encode_leaf(leaf, items)
        atomic_write(
            os.path.join(self.directory, entry["file"]),
            lambda handle, data=data: handle.write(data),
            binary=True,
        )
        self._entries[leaf] = _leaf_entry(
            leaf, entry["file"], data, index, len(items))
        self._items[leaf] = items

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
            self._items.clear()
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
            return sorted(self._items)

    def leaf_items(self, leaf):
        """The leaf's cells in sorted order, loading from disk on first use.

        This is the *merged view*: the on-disk base run plus the
        in-memory delta run of every not-yet-compacted append, merged
        lazily and cached until the next append or compaction — so
        append cost never includes a leaf rewrite.
        """
        self._check_open()
        if not self._delta_items:
            return self._base_items(leaf)
        with self._lock:
            delta = self._delta_items.get(leaf)
            if not delta:
                return self._base_items(leaf)
            merged = self._merged.get(leaf)
            if merged is None:
                merged = _merge_sorted(self._base_items(leaf), delta)
                self._merged[leaf] = merged
            return merged

    def _base_items(self, leaf):
        """The leaf's compacted on-disk cells (no delta run)."""
        items = self._items.get(leaf)
        if items is not None:
            return items
        with self._lock:
            items = self._items.get(leaf)
            if items is not None:
                return items
            entry = self._entries.get(leaf)
            if entry is None:
                raise PlanError("cuboid %r is not a stored leaf" % (leaf,))
            path = os.path.join(self.directory, entry["file"])
            with open(path, "rb") as handle:
                handle.readline()  # header
                items = _parse_rows(handle.readlines(), len(leaf))
            if len(items) != entry["cells"]:
                raise StoreCorruptError(
                    leaf,
                    "has %d cells on disk, manifest says %d"
                    % (len(items), entry["cells"]),
                    self.directory,
                )
            self._items[leaf] = items
            return items

    def query(self, cuboid, minsup=1):
        """Answer ``GROUP BY cuboid HAVING <threshold>`` from the store.

        One ordered pass over the covering leaf's presorted cells —
        identical semantics to ``LeafMaterialization.query``.  Returns
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
            leaf = self.covering_leaf(cuboid)
            items = self.leaf_items(leaf)
            width = len(cuboid)
            out = {}
            current = None
            count = 0
            total = 0.0
            for cell, (c, v) in items:
                prefix = cell[:width]
                if prefix != current:
                    if current is not None and threshold.qualifies(count,
                                                                   total):
                        out[current] = (count, total)
                    current = prefix
                    count = 0
                    total = 0.0
                count += c
                total += v
            if current is not None and threshold.qualifies(count, total):
                out[current] = (count, total)
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
        """One cell of one cuboid: ``(count, sum)`` or ``None``.

        For a loaded leaf this is a binary search over the sorted items;
        for an unloaded leaf the prefix offset index turns it into a
        seek + one contiguous run scan, without reading the whole file.
        """
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
        leaf = self.covering_leaf(cuboid)
        if self._delta_items.get(leaf):
            # Pending delta run: answer from the merged view so un-
            # compacted appends are visible to point lookups too.
            items = self.leaf_items(leaf)
            start = bisect_left(items, (cell,))
        else:
            items = self._items.get(leaf)
            if items is None:
                items = self._run_items(leaf, cell[0])
                start = 0
            else:
                start = bisect_left(items, (cell,))
        width = len(cell)
        count = 0
        total = 0.0
        for leaf_cell, (c, v) in items[start:]:
            prefix = leaf_cell[:width]
            if prefix < cell:
                continue
            if prefix != cell:
                break
            count += c
            total += v
        if count and threshold.qualifies(count, total):
            return (count, total)
        return None

    def _run_items(self, leaf, first_coord):
        """Read only the contiguous run of ``leaf`` rows starting with
        ``first_coord``, via the manifest's prefix offset index."""
        entry = self._entries[leaf]
        run = entry["index"].get(first_coord)
        if run is None:
            return []
        offset, n_rows = run
        path = os.path.join(self.directory, entry["file"])
        with self._lock:
            self._check_open()
            with open(path, "rb") as handle:
                handle.seek(offset)
                lines = [handle.readline() for _ in range(n_rows)]
        return _parse_rows(lines, len(leaf))

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def append(self, relation, batch_id=None):
        """Fold new rows into every stored leaf (delta maintenance).

        Mirrors ``LeafMaterialization.insert``: the leaves hold
        unfiltered minsup-1 cells, so appending is pure accumulation and
        ``generation`` is bumped so caches invalidate.  The batch is
        first made durable as a checksummed WAL record, then applied as
        an in-memory delta run — O(batch x leaves), independent of the
        store's size; leaf files are only rewritten by the (background)
        :meth:`compact`.  ``batch_id`` makes the append idempotent: a
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
            measures = list(relation.measures)
            generation = self.generation + 1
            with obs.span("ingest.wal", rows=len(keyed)) as span:
                nbytes = self.wal.append(generation, batch_id, self.dims,
                                         keyed, measures)
                self._apply_delta(keyed, measures, generation, batch_id)
                if span:
                    span.set(generation=generation, bytes=nbytes,
                             pending=len(self._pending))
            self._ingest_counter("repro_ingest_appends_total")
            self._maybe_compact_locked()
            return AppendResult(generation, True, batch_id)

    def _apply_delta(self, keyed_rows, measures, generation, batch_id):
        """Fold one batch (rows already in store-dims order) into the
        per-leaf delta runs and advance the generation."""
        for leaf in self.leaves:
            leaf_positions = [self.dims.index(d) for d in leaf]
            delta = {}
            for key, measure in zip(keyed_rows, measures):
                cell = tuple(key[p] for p in leaf_positions)
                acc = delta.get(cell)
                if acc is None:
                    delta[cell] = [1, measure]
                else:
                    acc[0] += 1
                    acc[1] += measure
            delta_items = sorted(
                (cell, (acc[0], acc[1])) for cell, acc in delta.items()
            )
            existing = self._delta_items.get(leaf)
            self._delta_items[leaf] = (
                _merge_sorted(existing, delta_items) if existing
                else delta_items)
            self._merged.pop(leaf, None)
        self._pending.append({"generation": generation,
                              "batch_id": batch_id,
                              "rows": len(keyed_rows)})
        self._applied_batches[batch_id] = generation
        self.total_rows += len(keyed_rows)
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

        The journalled two-phase rewrite: the merged view of each leaf
        is staged, a journal naming the complete state is committed
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
                staged = []  # (leaf, entry, data, merged)
                for leaf in self.leaves:
                    merged = self.leaf_items(leaf)
                    data, index = _encode_leaf(leaf, merged)
                    filename = self._entries[leaf]["file"]
                    staged.append((
                        leaf,
                        _leaf_entry(leaf, filename, data, index, len(merged)),
                        data,
                        merged,
                    ))
                # Phase 1: stage every rewritten leaf next to the live one.
                for _leaf, entry, data, _merged in staged:
                    atomic_write(
                        os.path.join(self.directory,
                                     entry["file"] + STAGED_SUFFIX),
                        lambda handle, data=data: handle.write(data),
                        binary=True,
                    )
                chaos_kill("compact.staged")
                new_entries = {leaf: entry
                               for leaf, entry, _data, _merged in staged}
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
                for _leaf, entry, _data, _merged in staged:
                    path = os.path.join(self.directory, entry["file"])
                    os.replace(path + STAGED_SUFFIX, path)
                _write_json(os.path.join(self.directory, MANIFEST), manifest)
                os.unlink(os.path.join(self.directory, JOURNAL))
                for leaf, entry, _data, merged in staged:
                    self._entries[leaf] = entry
                    self._items[leaf] = merged
                self._delta_items.clear()
                self._merged.clear()
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
                    "index": {
                        str(k): list(v)
                        for k, v in entries[leaf]["index"].items()
                    },
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
