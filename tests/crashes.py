"""Store crashes, done from outside.

A *cut* stops the program at the ``k``-th call of a file operation the
store writes through — the rename of ``repro.core.export.publish``
(``os.replace``, which nothing else in ``src/`` calls) or
``os.unlink``; both count unless ``op`` names one, ``"replace"`` or
``"unlink"``, or a file name, which counts only the rename publishing
that file (``Cut(1, op=MANIFEST)`` is the manifest's commit) — just
``"before"`` that call or just ``"after"`` it returns.  In process it
raises :class:`Crash`, a ``BaseException`` on which the publish still
deletes its temp; in a child (:func:`run_child`) it is a ``SIGKILL``,
after which nothing runs.

One child by hand:  PYTHONPATH=src python tests/crashes.py DIR STEPS K SIDE [OP]
(``STEPS``: a pickled :func:`run_steps` list).
"""

import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile

from repro.core.export import is_debris
from repro.core.naive import naive_cuboid
from repro.data import zipf_relation
from repro.errors import SchemaError
from repro.serve import CubeStore

OPS = ("replace", "unlink")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


class Crash(BaseException):
    """A process death, in process."""


class Cut:
    """A context manager that patches the two operations and ends
    quietly on a :class:`Crash`; ``k=None`` only counts them.  ``seen``
    lists the operations counted, as ``(op, file name)``; after the cut
    fires none is."""

    def __init__(self, k=None, side="before", op=None, kill=False):
        self.k, self.side, self.op, self.kill = k, side, op, kill
        self.seen, self.fired = [], False

    def _stop(self):
        self.fired = True
        if self.kill:
            os.kill(os.getpid(), signal.SIGKILL)
        raise Crash(self.side, self.seen[self.k - 1], self.k)

    def _wrap(self, name, real):
        def call(*args, **kwargs):
            target = os.path.basename(args[-1])  # replace(tmp, path): path
            counted = not self.fired and self.op in (None, name, target)
            if counted:
                self.seen.append((name, target))
            hit = counted and len(self.seen) == self.k
            if hit and self.side == "before":
                self._stop()
            result = real(*args, **kwargs)
            if hit:
                self._stop()
            return result
        return call

    def __enter__(self):
        self._real = (os.replace, os.unlink)
        os.replace, os.unlink = (
            self._wrap(name, real) for name, real in zip(OPS, self._real))
        return self

    def __exit__(self, kind, value, traceback):
        os.replace, os.unlink = self._real
        return kind is Crash


def run_steps(directory, steps):
    """``("build", relation)`` builds a store in ``directory``, over
    whatever it holds; ``("append", relation, batch_id)`` and
    ``("compact",)`` go to the store, opened once without background
    compaction."""
    store = None
    for name, *args in steps:
        if name == "build":
            CubeStore.build(args[0], directory).close()
        else:
            store = store or CubeStore.open(directory, compact_after=None)
            getattr(store, name)(*args)
    if store is not None:
        store.close()


def run_child(directory, steps, cut):
    """Run ``steps`` in a child that ``SIGKILL``s itself at ``cut``;
    returns its exit status (``-SIGKILL`` once the cut fired)."""
    with open(directory + ".steps", "wb") as handle:
        pickle.dump(steps, handle)
    argv = [sys.executable, os.path.abspath(__file__), directory,
            directory + ".steps", str(cut.k), cut.side]
    child = subprocess.run(
        argv + ([cut.op] if cut.op else []),
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (SRC, os.environ.get("PYTHONPATH"))))),
        capture_output=True, timeout=120)
    assert child.returncode in (0, -signal.SIGKILL), child.stderr.decode()
    return child.returncode


def debris(directory):
    """Publish temps (``<file>.tmp.<pid>``) in the store and its WAL."""
    return sum(is_debris(name) for _path, _dirs, names in os.walk(directory)
               for name in names)


def _reopen(directory, steps, allowed, answers):
    """Reopen at ``verify="full"``, check the store; returns the side of
    the commit it shows."""
    try:
        store = CubeStore.open(directory, verify="full")
    except SchemaError:  # a first build cut before its manifest ...
        run_steps(directory, steps)  # ... which a retry completes
        store, side = CubeStore.open(directory, verify="full"), allowed[None]
    else:
        key = (store.generation, store.total_rows,
               store.recovery["wal_replayed"], store.recovery["wal_pruned"])
        assert key in allowed and not store.recovery["salvaged"], key
        side = allowed[key]
    with store:
        for leaf, cells in answers[store.total_rows].items():
            assert store.query(leaf) == cells, (directory, leaf)
        named = {entry["file"] for entry in store.snapshot().entries.values()}
    assert named == {name for name in os.listdir(directory)
                     if name.endswith(".run")} and not debris(directory)
    return side


def sweep(names=("build", "append", "compact"), kill=False):
    """Cut each phase at every write boundary — before each, and after
    the last — and check every reopen.  Returns ``{phase: {"boundaries",
    "before", "after", "debris"}}``: reopens on either side of the
    phase's commit (both must occur) and the temp files left to sweep."""
    whole = zipf_relation(400, [8, 5, 6, 3], skew=1.0, seed=7)
    base, old, new = whole.slice(0, 300), 300, len(whole)
    build, append = ("build", base), ("append", whole.slice(300, new), "d")
    # phase: (prepare, the steps cut, the stores a reopen may find:
    # (generation, rows, wal_replayed, wal_pruned) -> side of the commit)
    phases = {
        "build": ((), (build,), {None: "before", (1, old, 0, 0): "after"}),
        "rebuild": ((build,), (("build", whole),),
                    {(1, old, 0, 0): "before", (1, new, 0, 0): "after"}),
        "append": ((build,), (append,),
                   {(1, old, 0, 0): "before", (2, new, 1, 0): "after"}),
        "compact": ((build, append), (("compact",),),
                    {(2, new, 1, 0): "before", (2, new, 0, 1): "after",
                     (2, new, 0, 0): "after"}),
    }
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            prepare, steps, allowed = phases[name]
            template = os.path.join(tmp, name)
            os.makedirs(template)
            run_steps(template, prepare)
            shutil.copytree(template, template + "-n")
            with Cut() as count:
                run_steps(template + "-n", steps)
            n = len(count.seen)
            with CubeStore.open(template + "-n") as store:
                answers = {len(r): {leaf: naive_cuboid(r, leaf)
                                    for leaf in store.leaves}
                           for r in (base, whole)}
            tally = {"boundaries": n, "before": 0, "after": 0, "debris": 0}
            cuts = [Cut(k, kill=kill) for k in range(1, n + 1)]
            for i, cut in enumerate(cuts + [Cut(n, "after", kill=kill)]):
                directory = "%s-%d" % (template, i)
                shutil.copytree(template, directory)
                if kill:
                    assert run_child(directory, steps, cut) == -signal.SIGKILL
                else:
                    with cut:
                        run_steps(directory, steps)
                    assert cut.fired
                tally["debris"] += debris(directory)
                tally[_reopen(directory, steps, allowed, answers)] += 1
            assert tally["before"] and tally["after"], (name, tally)
            report[name] = tally
    return report


if __name__ == "__main__":
    directory, path, k, side, *op = sys.argv[1:]
    with open(path, "rb") as handle:
        work = pickle.load(handle)
    with Cut(int(k), side, *op, kill=True):
        run_steps(directory, work)
