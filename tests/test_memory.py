"""A `verify` verdict holds no table of all node pairs and no (degree + 1)^2
Gram matrix: each phase that once built one stays below that size."""

import tracemalloc

from heatframe import cli, geometry, heat, jacobi, operators

NODES, DEGREE = 1024, 800
# (module, phase, the node count of its space, read from its arguments)
PHASES = (
    (heat, "verify_semigroup", lambda space, *_: space.n),
    (operators, "dominated_operator", lambda kernel, *_: kernel.space.n),
    (operators, "verify_young", lambda op, *_: op.kernel.space.n),
    (operators, "verify_schur", lambda op, *_: op.kernel.space.n),
    (jacobi, "build_basis", lambda space, *_: space.n),
)


def test_verify_at_1024_nodes_allocates_no_table_of_all_pairs(monkeypatch, tmp_path):
    peaks: dict[str, list[tuple[int, int]]] = {}

    def watch(module, name, nodes_of):
        original = getattr(module, name)

        def traced(*args, **kwargs):
            entry, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                peaks.setdefault(name, []).append((nodes_of(*args), peak - entry))

        monkeypatch.setattr(module, name, traced)

    def no_dense_table(*args, **kwargs):
        raise AssertionError("verify built the dense heat-kernel table")

    for module, name, nodes_of in PHASES:
        watch(module, name, nodes_of)
    monkeypatch.setattr(heat, "heat_kernel", no_dense_table)
    geometry.make_jacobi_space.cache_clear()  # a cold verdict, as a one-shot run pays it: new spaces, new bases
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--nodes", str(NODES), "--degree", str(DEGREE), "--out", str(tmp_path / "v.json")])
    finally:
        tracemalloc.stop()
    assert code == 0
    table_bytes = NODES * NODES * 8
    for name in ("verify_semigroup", "dominated_operator", "verify_young", "verify_schur"):
        assert peaks[name], name
        assert max(peak for _, peak in peaks[name]) < table_bytes, (name, peaks[name])
    # The refinement: 2048 nodes at degree 121, the 122 rows its fits read;
    # about 6 MiB, against 24 MiB when it checked the Gram matrix of all
    # 1601 rows of degree 1600.
    # The verdict is cold, so it builds its base basis as well: a kept pair
    # would leave nothing here to measure.
    assert sorted(n for n, _ in peaks["build_basis"]) == [NODES, 2 * NODES]
    refined = [peak for n, peak in peaks["build_basis"] if n == 2 * NODES]
    assert len(refined) == 1
    assert refined[0] < jacobi._BLOCK_BYTES
