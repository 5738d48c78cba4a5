"""The four workloads and their seeded inputs.

A workload is a relation, a stream of 64-row append batches, a weighted
query population and the oracle answers for it.  Everything here is a
pure function of ``(workload, seed, scale)``: the pipeline only ever
sees the generated relation, batches and queries, and every answer it
gets back is compared with what ``repro.core.naive`` says.

Every workload runs every pipeline stage; they differ in *which stage
is heavy* (see ``README.md`` for the rationale table).
"""

import itertools
import random
from bisect import bisect_left
from collections import namedtuple

from repro.core.naive import naive_cuboid
from repro.data import Relation, zipf_relation

#: kernelbench's d=10 cardinalities, and the d=8 prefix-like set the
#: serving workloads use (128 leaves instead of 512).
CARDS_D10 = (16, 14, 12, 10, 8, 8, 6, 6, 4, 4)
CARDS_D8 = (16, 14, 12, 10, 8, 8, 6, 6)

#: Rows of the stored relation and of the cube stage's input, as shares
#: of the issue's row counts (8 000 at d=10, 20 000 at d=8).  The issue
#: sized a run at 30-60 s with every stage measured once; the builder
#: gives a run ~35 s including set-up, on a shared host where a stage
#: measured once or twice does not repeat within a quarter.  So a round
#: (one whole pipeline) is sized at about 2 s and a run is a dozen of
#: them: the stored relation is 1/32 (d=10: 512 leaves cost what they
#: cost however few the rows) or 1/16 of the issue's, the cube input
#: 1/8.  ``smoke`` halves both again, for the tests.
SCALES = {"ref": 1.0, "smoke": 0.5}

BATCH_ROWS = 64

#: One workload's fixed shape.  ``rows`` / ``cube_rows`` are the stored
#: relation's and the cube input's rows at the reference scale (the
#: stored relation is a prefix of the cube input); ``group_by`` is the
#: (lo, hi) range of group-by widths in the query population;
#: ``point_share`` / ``cube_share`` the traffic shares of point lookups
#: and full-cube fan-outs; ``zipf`` the popularity exponent within each
#: kind; ``batches`` the 64-row appends of one round.
Spec = namedtuple("Spec", (
    "name", "cards", "rows", "cube_rows", "backend", "serving",
    "cube_minsups", "group_by", "minsups", "point_share", "cube_share",
    "zipf", "cache_size", "compact_after", "batches"))

SPECS = {spec.name: spec for spec in (
    # Near-uniform popularity over 350 entries and a cache of 32: with
    # the default 256-entry cache (or a Zipf 1.0 mix) most in-process
    # queries hit, and the median flips between a 15 us hit and a 200 us
    # wait for the other client's scan to release the GIL.  The hit path
    # is measured by serve_ingest_router instead.
    # The pool cubes 4 000 rows: at 1 000 a cube is 70 ms of mostly pool
    # start-up.  MapReduce, 30x dearer per row, cubes their first 1 000.
    Spec("compute_local", CARDS_D10, 250, 4000, "local", "inproc",
         (5, 20), (1, 3), (1, 10), 0.0, 0.0, 0.3, 32, None, 3),
    Spec("compute_mapreduce", CARDS_D10, 250, 1000, "mapreduce", "inproc",
         (20,), (1, 3), (1, 10), 0.0, 0.0, 0.3, 32, None, 3),
    Spec("serve_scan_http", CARDS_D8, 1250, 2500, "local", "http",
         (5, 20), (2, 5), (1, 10), 0.0, 0.0, 0.3, 32, 1000000, 4),
    # 7 batches at --compact-after 3: two background compactions per
    # server in every round, one batch left pending for recover and
    # compact.
    Spec("serve_ingest_router", CARDS_D8, 1250, 2500, "local", "router",
         (5, 20), (1, 3), (1, 10), 0.2, 0.01, 1.3, 4096, 3, 7),
)}

#: One query: ``kind`` is "query", "point" or "cube"; ``cell`` is set
#: for points only; ``cuboid`` is () for cube fan-outs.
Query = namedtuple("Query", ("kind", "cuboid", "minsup", "cell"))

#: Cuboids whose cube-stage result is checked against naive.
CUBE_SAMPLE = 24
#: Queried cuboids re-verified against the post-ingest oracle.
VERIFY_SAMPLE = 16
#: Distinct group-bys in the warm pass, one cold leaf load each (all 210
#: of serve_scan_http over HTTP would be most of a round).
WARM_SAMPLE = 32
#: Length of the pre-drawn query index sequence the clients cycle over.
SEQUENCE_LEN = 8192
#: Seed of every choice of shape (see ``Inputs``).
SHAPE_SEED = 2001


class Inputs:
    """Everything one run feeds the system, plus the expected answers."""

    def __init__(self, spec, seed, scale):
        self.spec = spec
        self.seed = seed
        self.rows = int(spec.rows * SCALES[scale])
        # The data and the order of requests come from the seed.  Which
        # group-bys are popular, warmed and verified does not: two seeds
        # then differ in their rows and not in the shape of their work
        # (under Zipf 1.3 a tenth of the traffic is the top entry; a
        # 3-dim group-by there on one seed and a 1-dim one on the next
        # moved query_per_s by a third).
        rng = random.Random(seed)
        shapes = random.Random(SHAPE_SEED)
        #: input of the cube stage
        self.cube_relation = zipf_relation(
            int(spec.cube_rows * SCALES[scale]), spec.cards, skew=1.0,
            seed=seed)
        self.dims = self.cube_relation.dims
        #: what is built into the store and served: its first rows
        self.relation = Relation(
            self.dims, self.cube_relation.rows[:self.rows],
            self.cube_relation.measures[:self.rows],
            cardinalities=dict(zip(self.dims, spec.cards)))
        self.batches = [
            zipf_relation(BATCH_ROWS, spec.cards, skew=1.0,
                          seed=seed * 7919 + 1 + i)
            for i in range(spec.batches)
        ]
        final = self.relation
        for batch in self.batches:
            final = final.concat(batch)

        cuboids = [c for width in range(spec.group_by[0], spec.group_by[1] + 1)
                   for c in itertools.combinations(self.dims, width)]
        #: oracle: queried cuboid -> {cell: (count, sum)} at minsup 1
        self.base = {c: naive_cuboid(self.relation, c) for c in cuboids}
        self.population, self.sequence = self._traffic(cuboids, rng, shapes)
        #: the warm pass: a sample of the distinct group-bys, once each
        #: (a cold leaf load and a full answer each), then every point
        #: and cube entry
        self.warm_queries = [
            Query("query", c, 1, None)
            for c in shapes.sample(cuboids, min(WARM_SAMPLE, len(cuboids)))
        ] + [q for q in self.population if q.kind != "query"]
        #: what a flood answer's digest must be (None for cube fan-outs,
        #: which are checked cuboid by cuboid instead)
        self.digests = [
            None if q.kind == "cube" else digest(self.expected(q))
            for q in self.population]
        #: cuboids whose post-ingest / post-recover answers are checked
        self.verify_cuboids = shapes.sample(
            cuboids, min(VERIFY_SAMPLE, len(cuboids)))
        self.final = {c: naive_cuboid(final, c) for c in self.verify_cuboids}
        #: cube-stage check: a seeded sample of the whole lattice
        lattice = [c for width in range(1, len(self.dims) + 1)
                   for c in itertools.combinations(self.dims, width)]
        self.cube_oracle = {
            c: naive_cuboid(self.cube_relation, c)
            for c in shapes.sample(lattice, min(CUBE_SAMPLE, len(lattice)))}

    def _traffic(self, cuboids, rng, shapes):
        """The query population and the index sequence clients cycle over.

        Traffic is mixed by kind first (``point_share``, ``cube_share``,
        the rest group-bys), then Zipf-ranked within the kind; popularity
        rank is independent of cuboid shape.
        """
        spec = self.spec
        queries = [Query("query", c, m, None)
                   for c in cuboids for m in spec.minsups]
        shapes.shuffle(queries)
        points = []
        if spec.point_share:
            for _ in range(len(queries) // 4):
                cuboid = shapes.choice(cuboids)
                cell = rng.choice(sorted(self.base[cuboid]))
                points.append(Query("point", cuboid, 1, cell))
        # High thresholds: a dashboard's "top cells of everything"
        # request, kept small so it tests the fan-out, not JSON size.
        cubes = [Query("cube", (), minsup, None)
                 for minsup in (200, 400)] if spec.cube_share else []
        kinds = [(spec.cube_share, cubes), (spec.point_share, points),
                 (1.0, queries)]
        offsets, samplers, offset = [], [], 0
        for _share, entries in kinds:
            weights = [1.0 / (rank ** spec.zipf)
                       for rank in range(1, len(entries) + 1)]
            offsets.append(offset)
            samplers.append(list(itertools.accumulate(weights)))
            offset += len(entries)
        sequence = []
        for _ in range(SEQUENCE_LEN):
            draw = rng.random()
            for k, (share, _entries) in enumerate(kinds):
                if draw < share or k == len(kinds) - 1:
                    break
                draw -= share
            cumulative = samplers[k]
            rank = bisect_left(cumulative, rng.random() * cumulative[-1])
            sequence.append(offsets[k] + min(rank, len(cumulative) - 1))
        return cubes + points + queries, sequence

    # ------------------------------------------------------------------
    # expected answers
    # ------------------------------------------------------------------
    def expected(self, query, final=False):
        """Oracle answer of one population entry: a ``{cell: (count, sum)}``
        dict (points: zero or one cell).  Cube fan-outs have no single
        oracle; see :meth:`check_cube`."""
        cells = (self.final if final else self.base)[query.cuboid]
        if query.kind == "point":
            agg = cells.get(query.cell)
            return {query.cell: agg} if agg and agg[0] >= query.minsup else {}
        return filter_minsup(cells, query.minsup)

    def check_cube(self, cuboids, minsup, final=False):
        """A merged cube answer against every cuboid the oracle holds."""
        oracle = self.final if final else self.base
        if len(cuboids) != 2 ** len(self.dims):
            return False
        return all(cuboids.get(c) == filter_minsup(cells, minsup)
                   for c, cells in oracle.items())

    def rows_at(self, generation):
        """Total rows a store at ``generation`` must hold (the base store
        is generation 1 and every applied batch adds one)."""
        return self.rows + BATCH_ROWS * (generation - 1)


def digest(cells):
    """A cheap order-free fingerprint of a ``{cell: (count, sum)}``
    answer: cells, total count, total sum.  Measures are small integers
    held in floats, so the sums are exact and order-independent."""
    count = 0
    total = 0.0
    for c, v in cells.values():
        count += c
        total += v
    return len(cells), count, total


def filter_minsup(cells, minsup):
    if minsup <= 1:
        return cells
    return {cell: agg for cell, agg in cells.items() if agg[0] >= minsup}
