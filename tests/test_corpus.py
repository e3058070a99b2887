"""The committed corpus file: its contents against the networkx atlas, its
counts per order, and a run-time path that never imports networkx."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from listcolor.corpus import _ATLAS_FILE, small_connected_graphs
from listcolor.errors import InvalidParameterError
from listcolor.graphs import Graph

ROOT = Path(__file__).resolve().parent.parent

# Connected graphs on exactly n vertices, n = 1..7 (OEIS A001349).
CONNECTED_PER_ORDER = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def atlas_connected_graphs(max_vertices):
    """The reference the corpus file was written from: networkx's graph atlas
    (Read & Wilson, An Atlas of Graphs) filtered to connected graphs with
    1..max_vertices vertices, in atlas order."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for atlas_graph in graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if 1 <= n <= max_vertices and nx.is_connected(atlas_graph):
            out.append(Graph(n, list(atlas_graph.edges())))
    return tuple(out)


def atlas_text(graphs):
    """The corpus file format: per graph, n and then each edge u < v as two
    digits, in ascending order."""
    return "".join(
        " ".join([str(g.n)] + [f"{u}{v}" for u, v in sorted(g.edges)]) + "\n" for g in graphs
    )


class TestAgainstNetworkxAtlas:
    def test_file_is_the_atlas_rendered(self):
        assert _ATLAS_FILE.read_text(encoding="ascii") == atlas_text(atlas_connected_graphs(7))

    @pytest.mark.parametrize("max_vertices", range(1, 8))
    def test_same_graphs_in_the_same_order(self, max_vertices):
        loaded = small_connected_graphs(max_vertices)
        reference = atlas_connected_graphs(max_vertices)
        assert [(g.n, g.adjacency) for g in loaded] == [(g.n, g.adjacency) for g in reference]


class TestCounts:
    def test_connected_graphs_per_order(self):
        full = small_connected_graphs(7)
        assert Counter(g.n for g in full) == CONNECTED_PER_ORDER
        assert len(full) == 996 and len(small_connected_graphs(6)) == 143

    def test_each_bound_is_a_prefix(self):
        full = small_connected_graphs(7)
        for m in range(1, 8):
            expected = sum(CONNECTED_PER_ORDER[n] for n in range(1, m + 1))
            assert small_connected_graphs(m) == full[:expected]

    @pytest.mark.parametrize("max_vertices", [0, 8])
    def test_outside_one_to_seven_is_rejected(self, max_vertices):
        with pytest.raises(InvalidParameterError, match="1..7"):
            small_connected_graphs(max_vertices)


def test_run_time_path_does_not_import_networkx():
    script = (
        "import sys\n"
        "import listcolor\n"
        "from listcolor.corpus import small_connected_graphs\n"
        "from listcolor.harness import CorpusSpec, verify_lemmas\n"
        "assert len(small_connected_graphs(7)) == 996\n"
        "assert verify_lemmas(CorpusSpec(max_vertices=5, assignments_per_graph=1)).passed\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
