"""Backend registry: names, what each entry does and takes, and error
surfaces."""

import io

import pytest

from repro.backends import BACKENDS, backend_names, resolve_backend
from repro.cli import main
from repro.cluster import cluster1
from repro.core.naive import naive_cuboid, naive_iceberg_cube
from repro.core.thresholds import as_threshold
from repro.data import zipf_relation
from repro.errors import PlanError
from repro.lattice.lattice import CubeLattice
from repro.online import LeafMaterialization
from repro.serve import CubeStore


def test_every_registered_backend_resolves():
    for name in BACKENDS:
        info = resolve_backend(name)
        assert info.name == name
        assert info.capabilities
        assert info.summary
        assert info.options
        assert callable(info.cube) and callable(info.materialize)


def test_backend_names_sorted_and_filterable():
    assert backend_names() == sorted(BACKENDS)
    assert backend_names("streaming") == ["mapreduce"]
    assert backend_names("simulated-timing") == ["simulated"]
    assert set(backend_names("workers")) == {"local", "mapreduce"}


@pytest.mark.parametrize("shards", [None, 2])
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_every_backend_cubes_and_materializes_like_naive(name, shards,
                                                         tmp_path):
    """The whole protocol, every entry: ``cube`` is naive's cube, and
    the stores ``materialize`` writes answer every cuboid as naive."""
    relation = zipf_relation(150, [5, 4, 3], skew=0.8, seed=9)
    backend = resolve_backend(name)
    threshold = as_threshold(2)
    got = backend.cube(relation, relation.dims, threshold)
    expected = naive_iceberg_cube(relation, relation.dims, threshold)
    assert got.equals(expected), got.diff(expected)

    stores = backend.materialize(relation, str(tmp_path / "out"),
                                 relation.dims, shards=shards)
    try:
        assert len(stores) == (shards or 1)
        owned = [cuboid for store in stores
                 for cuboid in store.owned_cuboids()]
        lattice = CubeLattice(relation.dims).cuboids(include_all=True)
        assert sorted(owned) == sorted(lattice)  # complete and disjoint
        for store in stores:
            for cuboid in store.owned_cuboids():
                want = naive_cuboid(relation, cuboid) if cuboid else {
                    (): (len(relation), sum(relation.measures))}
                assert store.query(cuboid, minsup=1) == want
    finally:
        for store in stores:
            store.close()


def test_mapreduce_writes_stores_not_in_memory_materializations():
    relation = zipf_relation(50, [4, 3], skew=0.8, seed=2)
    with pytest.raises(PlanError) as err:
        LeafMaterialization(relation, backend="mapreduce")
    assert "writes stores" in str(err.value)
    with pytest.raises(PlanError) as err:
        LeafMaterialization(relation, backend="nosuch")
    assert "valid backends" in str(err.value)


def test_option_a_backend_does_not_take_is_refused():
    with pytest.raises(PlanError) as err:
        resolve_backend("simulated").check_options(["workers"])
    message = str(err.value)
    assert "workers=" in message and "simulated" in message
    assert "local, mapreduce" in message
    # ... from every entry point with a fixed signature, too
    relation = zipf_relation(50, [4, 3], skew=0.8, seed=2)
    with pytest.raises(PlanError):
        LeafMaterialization(relation, backend="simulated", workers=2)
    with pytest.raises(PlanError):
        CubeStore.build(relation, "unused", backend="mapreduce",
                        cluster_spec=cluster1(2))


def test_unknown_backend_lists_valid_choices():
    with pytest.raises(PlanError) as err:
        resolve_backend("nosuch")
    message = str(err.value)
    assert "nosuch" in message
    for name in BACKENDS:
        assert name in message


def test_missing_capability_names_supporting_backends():
    with pytest.raises(PlanError) as err:
        resolve_backend("simulated", require={"streaming"})
    message = str(err.value)
    assert "streaming" in message
    assert "mapreduce" in message


def test_cli_rejects_unknown_backend():
    out = io.StringIO()
    code = main(["cube", "--weather", "50", "--backend", "bogus"], out=out)
    assert code == 2
    text = out.getvalue()
    assert "bogus" in text
    for name in BACKENDS:
        assert name in text


@pytest.mark.parametrize("command, backend, flag", [
    (["cube"], "simulated", ["--workers", "4"]),
    (["cube"], "local", ["--mr-reducers", "2"]),
    (["cube"], "mapreduce", ["--batch-size", "8"]),
    (["store", "build", "--out", "unused"], "mapreduce", ["--calibrate"]),
    (["store", "build", "--out", "unused"], "local",
     ["--mr-memory-budget", "1m"]),
], ids=["cube-simulated-workers", "cube-local-mr-reducers",
        "cube-mapreduce-batch-size", "store-mapreduce-calibrate",
        "store-local-mr-memory-budget"])
def test_cli_refuses_flags_the_backend_cannot_honour(command, backend, flag):
    out = io.StringIO()
    code = main(command + ["--weather", "50", "--backend", backend] + flag,
                out=out)
    assert code == 2
    text = out.getvalue()
    assert text.startswith("error: %s is not an option of the %s backend"
                           % (flag[0], backend))
    assert "backends that take it" in text
