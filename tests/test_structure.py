import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthmia import cli, recovery, sdg
from synthmia.data import Dataset, Domain
from synthmia.dp import DpParams
from synthmia.errors import ConfigurationError, ParseError


@st.composite
def trees(draw):
    """A random spanning tree: node k > 0 hangs off an earlier node, listed either way round."""
    d = draw(st.integers(1, 8))
    edges = [(k, draw(st.integers(0, k - 1))) for k in range(1, d)]
    return sdg.Structure("mst", draw(st.permutations(edges)))


@st.composite
def orders(draw):
    """A random network: nodes in a random order, parents drawn from the nodes placed before."""
    nodes = draw(st.permutations(range(draw(st.integers(1, 7)))))
    parents = [draw(st.lists(st.sampled_from(nodes[:k]), unique=True)) if k else [] for k in range(len(nodes))]
    return sdg.Structure("privbayes", zip(nodes, parents))


@given(trees() | orders())
@settings(max_examples=100, deadline=None)
def test_json_round_trip(structure):
    assert sdg.Structure.from_json(json.loads(json.dumps(structure.to_json()))) == structure


def test_canonical_keys():
    tree = sdg.Structure("mst", [(2, 1), (1, 0)])
    assert tree.keys == ((0, 1), (1, 2))
    assert tree == sdg.Structure("mst", ((0, 1), (1, 2)))
    net = sdg.Structure("privbayes", [[2, []], [0, [2]], [1, [2, 0]]])
    assert net.keys == ((2, ()), (0, (2,)), (1, (2, 0)))
    with pytest.raises(ConfigurationError):
        sdg.Structure("tree", [(0, 1)])


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"method": "mst"},
        {"method": "mst", "order": [[0, []]]},
        {"method": "mst", "edges": [[0, 1, 2]]},
        {"method": "mst", "edges": [["0", 1]]},
        {"method": "mst", "edges": [[0, True]]},
        {"method": "mst", "edges": [[0, -1]]},
        {"method": "privbayes", "edges": [[0, 1]]},
        {"method": "privbayes", "order": [[0, 1]]},
        {"method": "privbayes", "order": [[0.0, []]]},
        {"method": "tree", "edges": [[0, 1]]},
    ],
)
def test_from_json_rejects_malformed(obj):
    with pytest.raises(ParseError):
        sdg.Structure.from_json(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"method": "mst", "K": 1},
        {"method": "mst", "K": "1", "weights": {}},
        {"method": "mst", "K": 1, "weights": {"0-1": 1.5}},
        {"method": "mst", "K": 1, "weights": {"0|1": 1}},
        {"method": "privbayes", "K": 1, "weights": {"0-1": 1}},
        {"method": "tree", "K": 1, "weights": {"0-1": 1}},
        {"method": "mst", "K": 1, "weights": [["0-1", 1]]},
    ],
)
def test_weights_from_json_rejects_malformed(obj):
    with pytest.raises(ParseError):
        recovery.ShadowWeights.from_json(obj)


def reference_tree_error(edges, d):
    """The check a tree's edge list fails, in ``Structure.validate``'s order: count, range, then connectivity by BFS."""
    if len(edges) != d - 1:
        return "a spanning tree needs exactly d - 1 edges"
    if any(v >= d for edge in edges for v in edge):
        return f"structure names an attribute outside 0..{d - 1}"
    adj = {v: [] for v in range(d)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    reached, queue = {0}, [0]
    for v in queue:
        for w in adj[v]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    # d - 1 edges in range that leave some attribute unreached close a cycle (a self-loop included)
    return None if len(reached) == d else "edges contain a cycle"


@st.composite
def edge_lists(draw):
    """(edges, d): a random tree over d <= 8 attributes, often broken by a self-loop, repeat, cycle or stray index."""
    d = draw(st.integers(1, 8))
    edges = [(k, draw(st.integers(0, k - 1))) for k in range(1, d)]
    node = st.integers(0, d + 1)
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["replace", "add", "drop", "self-loop", "repeat"]))
        if fault in ("replace", "drop") and edges:
            edges.pop(draw(st.integers(0, len(edges) - 1)))
        if fault in ("replace", "add"):
            edges.append((draw(node), draw(node)))
        elif fault == "self-loop" and edges:
            v = draw(st.integers(0, d - 1))
            edges[draw(st.integers(0, len(edges) - 1))] = (v, v)
        elif fault == "repeat" and edges:
            edges[draw(st.integers(0, len(edges) - 1))] = draw(st.sampled_from(edges))
    return draw(st.permutations(edges)), d


@given(edge_lists())
@settings(max_examples=500, deadline=None)
def test_validate_tree_matches_reference(case):
    edges, d = case
    want = reference_tree_error(edges, d)
    if want is None:
        sdg.Structure("mst", edges).validate(d)
    else:
        with pytest.raises(ConfigurationError) as err:
            sdg.Structure("mst", edges).validate(d)
        assert str(err.value) == want


def _kruskal(ds):
    """Reference maximum spanning tree: edges by (-score, pair), skipping cycles."""
    d = len(ds.domain)
    scored = sorted((-sdg.mst_edge_score(ds, i, j), (i, j)) for i in range(d) for j in range(i + 1, d))
    component = list(range(d))  # an edge joins two components, relabelling j's as i's
    edges = []
    for _, (i, j) in scored:
        if component[i] != component[j]:
            old = component[j]
            component = [component[i] if c == old else c for c in component]
            edges.append((i, j))
    return sdg.Structure("mst", edges)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_recover_tree_is_noiseless_selection(seed):
    # few rows of binary attributes: many edges tie on score
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    domain = Domain([f"a{i}" for i in range(d)], [2] * d)
    ds = Dataset(domain, rng.integers(0, 2, size=(int(rng.integers(1, 12)), d)))
    recovered = recovery.recover_tree(ds)
    assert recovered == _kruskal(ds)
    assert recovered == sdg.fit_mst(ds, DpParams(math.inf), 0).structure


TREE_JSON = """{
  "method": "mst",
  "edges": [
    [
      0,
      1
    ],
    [
      0,
      2
    ]
  ]
}"""

ORDER_JSON = """{
  "method": "privbayes",
  "order": [
    [
      1,
      []
    ],
    [
      0,
      []
    ],
    [
      2,
      [
        0,
        1
      ]
    ]
  ]
}"""

MST_WEIGHTS_JSON = """{
  "method": "mst",
  "K": 2,
  "weights": {
    "0-1": 2,
    "0-2": 2
  }
}"""

PB_WEIGHTS_JSON = """{
  "method": "privbayes",
  "K": 3,
  "weights": {
    "0|": 3,
    "1|": 2,
    "1|0,2": 1,
    "2|": 1,
    "2|0,1": 2
  }
}"""


@pytest.mark.parametrize(
    "command, text",
    [
        (["recover", "--method", "mst"], TREE_JSON),
        (["recover", "--method", "privbayes", "--seed", "1"], ORDER_JSON),
        (["shadow", "--method", "mst", "--k", "2", "--subset-size", "8"], MST_WEIGHTS_JSON),
        (["shadow", "--method", "privbayes", "--k", "3", "--subset-size", "8"], PB_WEIGHTS_JSON),
    ],
)
def test_file_bytes(tmp_path, capsys, command, text):
    # z = x xor y: no single attribute tells anything about another, x and y together fix z
    path = tmp_path / "data.csv"
    path.write_text("x,y,z\n" + "0,0,0\n0,1,1\n1,0,1\n1,1,0\n" * 2)
    out = tmp_path / "out.json"
    flag = "--synth" if command[0] == "recover" else "--aux"
    assert cli.main([*command, flag, str(path), "--out", str(out)]) == 0
    assert out.read_text() == text
