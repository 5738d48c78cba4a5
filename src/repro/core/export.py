"""Persisting cube results: one CSV file per cuboid plus a manifest.

This mirrors how the thesis' implementation laid results out — "the
output, that is, the cells of cuboids, remains distributed where
processors output to their local disks", one file per cuboid — and is
what makes the library's results usable outside Python.  A saved cube
round-trips exactly through :func:`load_cube`.

Layout::

    <directory>/
      manifest.json          # dims, cuboid index, cell counts
      all.csv                # the empty group-by (when present)
      A.csv, A_B.csv, ...    # one file per cuboid: coords, count, sum
"""

import contextlib
import csv
import io
import json
import os

from ..errors import SchemaError
from .result import CubeResult

MANIFEST = "manifest.json"
ALL_FILE = "all.csv"

#: Bumped whenever the on-disk layout changes incompatibly; checked by
#: :func:`load_cube` so a newer writer fails loudly instead of parsing
#: wrong.
FORMAT_VERSION = 1


def _cuboid_filename(cuboid):
    return (("_".join(cuboid)) if cuboid else "all") + ".csv"


#: Marks a temp file :class:`Publication` writes: ``<path>.tmp.<pid>``.
TEMP_MARK = ".tmp."


def is_debris(name):
    """Whether ``name`` is a temp file an interrupted publish left."""
    return TEMP_MARK in name


def fsync_dir(directory):
    """Make the names in ``directory`` (a rename, a new entry) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Publication:
    """A file on its way to ``path``, written to :attr:`handle` under a
    temp name until :meth:`commit` renames it into place: a crash leaves
    the old file or nothing, never a torn one.  ``durable`` fsyncs the
    file and then its directory; leaving the ``with`` block on any
    exception (a :class:`BaseException` too) deletes the temp."""

    def __init__(self, path, durable=False):
        self.path, self.durable = path, durable
        self._tmp = "%s%s%d" % (path, TEMP_MARK, os.getpid())
        self.handle = open(self._tmp, "wb")

    def commit(self):
        if self.durable:
            self.handle.flush()
            os.fsync(self.handle.fileno())
        self.handle.close()
        os.replace(self._tmp, self.path)
        if self.durable:
            fsync_dir(os.path.dirname(self.path) or ".")

    def __enter__(self):
        return self

    def __exit__(self, kind, value, traceback):
        if kind is not None:
            try:
                self.handle.close()
            finally:
                with contextlib.suppress(OSError):
                    os.unlink(self._tmp)


def publish(path, write_body, durable=False):
    """Publish ``path`` whole: ``write_body`` writes the binary handle."""
    with Publication(path, durable) as target:
        write_body(target.handle)
        target.commit()


def publish_json(path, payload):
    """Publish ``payload`` as indented, key-sorted JSON (a manifest)."""
    publish(path, lambda handle: handle.write(
        json.dumps(payload, indent=2, sort_keys=True).encode()))


def save_cube(result, directory):
    """Write a :class:`CubeResult` under ``directory``.

    Each file is published whole (:func:`publish`), the manifest last,
    so a crashed save never leaves a half-written cuboid CSV next to a
    manifest that claims it is complete.  Returns the manifest dict
    that was written.
    """
    os.makedirs(directory, exist_ok=True)
    index = []
    for cuboid in sorted(result.cuboids, key=lambda c: (len(c), c)):
        cells = result.cuboids[cuboid]
        filename = _cuboid_filename(cuboid)
        path = os.path.join(directory, filename)

        def write_body(handle, cuboid=cuboid, cells=cells):
            text = io.TextIOWrapper(handle, newline="")
            writer = csv.writer(text)
            writer.writerow(list(cuboid) + ["count", "sum"])
            for cell in sorted(cells):
                count, value = cells[cell]
                writer.writerow(list(cell) + [count, repr(value)])
            text.detach()

        publish(path, write_body)
        index.append({
            "cuboid": list(cuboid),
            "file": filename,
            "cells": len(cells),
        })
    manifest = {
        "format": "repro-cube/1",
        "format_version": FORMAT_VERSION,
        "dims": list(result.dims),
        "cuboids": index,
        "total_cells": result.total_cells(),
    }
    publish_json(os.path.join(directory, MANIFEST), manifest)
    return manifest


def load_cube(directory):
    """Read a cube previously written by :func:`save_cube`."""
    manifest_path = os.path.join(directory, MANIFEST)
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise SchemaError("no cube manifest at %r" % (manifest_path,)) from None
    if manifest.get("format") != "repro-cube/1":
        raise SchemaError("unknown cube format %r" % (manifest.get("format"),))
    version = manifest.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise SchemaError(
            "cube format_version %r not supported (this library reads %d)"
            % (version, FORMAT_VERSION)
        )
    result = CubeResult(tuple(manifest["dims"]))
    for entry in manifest["cuboids"]:
        cuboid = tuple(entry["cuboid"])
        path = os.path.join(directory, entry["file"])
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            expected = list(cuboid) + ["count", "sum"]
            if header != expected:
                raise SchemaError(
                    "cuboid file %r has header %r, expected %r"
                    % (entry["file"], header, expected)
                )
            for line in reader:
                cell = tuple(int(v) for v in line[: len(cuboid)])
                count = int(line[len(cuboid)])
                value = float(line[len(cuboid) + 1])
                result.add_cell(cuboid, cell, count, value)
        if len(result.cuboids.get(cuboid, ())) != entry["cells"]:
            raise SchemaError(
                "cuboid %r has %d cells, manifest says %d"
                % (cuboid, len(result.cuboids.get(cuboid, ())), entry["cells"])
            )
    return result
