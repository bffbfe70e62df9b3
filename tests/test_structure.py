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


def _kruskal(ds):
    """Reference maximum spanning tree: edges by (-score, pair), skipping cycles."""
    d = len(ds.domain)
    scored = sorted((-sdg.mst_edge_score(ds, i, j), (i, j)) for i in range(d) for j in range(i + 1, d))
    sets = sdg.DisjointSets(d)
    return sdg.Structure("mst", [edge for _, edge in scored if sets.union(*edge)])


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
    assert recovered == sdg.fit_mst(ds, sdg.GeneratorConfig("mst", DpParams(math.inf))).structure


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
