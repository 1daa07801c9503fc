from math import comb

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlab.codec import (decode_graph6, decode_json, encode_graph6,
                        encode_json, graph_from_json_obj, graph_to_json_obj,
                        load_graph, load_graph_list, save_graph,
                        save_graph_list)
from hlab.errors import ParameterError, ParseError
from hlab.hypergraph import RUniformGraph, complete_graph, graph_from_edges


def test_fixed_vectors():
    assert encode_graph6(complete_graph(4, 2)) == "C~"
    assert encode_graph6(RUniformGraph(1, 2, 0)) == "@"
    c4 = graph_from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert encode_graph6(c4) == "Cl"
    assert encode_graph6(complete_graph(3, 2)) == "Bw"


def test_decode_fixed_vectors():
    assert decode_graph6("C~") == complete_graph(4, 2)
    assert decode_graph6("@") == RUniformGraph(1, 2, 0)
    assert decode_graph6("Cl").edges() == ((0, 1), (1, 2), (0, 3), (2, 3))


def test_roundtrip_exhaustive_small():
    for n in range(0, 6):
        for mask in range(1 << comb(n, 2)):
            G = RUniformGraph(n, 2, mask)
            assert decode_graph6(encode_graph6(G)) == G


def test_agrees_with_networkx():
    for n in range(1, 6):
        for mask in range(1 << comb(n, 2)):
            G = RUniformGraph(n, 2, mask)
            H = nx.Graph()
            H.add_nodes_from(range(n))
            H.add_edges_from(G.edges())
            ref = nx.to_graph6_bytes(H, header=False).decode().strip()
            assert encode_graph6(G) == ref


def test_graph6_rejects_r3():
    with pytest.raises(ParameterError):
        encode_graph6(complete_graph(4, 3))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        decode_graph6("")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        decode_graph6(chr(50) + "~")  # size byte below 63
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        decode_graph6("C~~")  # trailing garbage
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        decode_graph6("C")  # truncated data
    assert err.value.offset == 1
    with pytest.raises(ParseError) as err:
        decode_graph6("B" + chr(128))  # data byte out of range
    assert err.value.offset == 1


def test_nonzero_padding_rejected():
    # n=2 has one pair bit; 110000 sets a padding bit
    with pytest.raises(ParseError) as err:
        decode_graph6("A" + chr(0b110000 + 63))
    assert err.value.offset == 1
    assert decode_graph6("A" + chr(0b100000 + 63)).num_edges == 1


@given(st.integers(4, 8), st.data())
def test_json_roundtrip_r3(n, data):
    mask = data.draw(st.integers(0, (1 << comb(n, 3)) - 1))
    G = RUniformGraph(n, 3, mask)
    assert decode_json(encode_json(G)) == G


def test_json_object_shape():
    G = graph_from_edges(4, 3, [(0, 1, 2), (1, 2, 3)])
    obj = graph_to_json_obj(G)
    assert obj == {"n": 4, "r": 3, "edges": [[0, 1, 2], [1, 2, 3]]}
    assert graph_from_json_obj(obj) == G


def test_json_errors():
    with pytest.raises(ParseError):
        decode_json("{not json")
    with pytest.raises(ParseError):
        decode_json('{"n": 3, "r": 2}')  # missing edges
    with pytest.raises(ParameterError):
        decode_json('{"n": 3, "r": 2, "edges": [[0, 9]]}')


@pytest.mark.parametrize("text", [
    '{"n": 3.7, "r": 2, "edges": [[0, 1]]}',
    '{"n": 3, "r": 2, "edges": [[0, 1.9]]}',
    '{"n": 3, "r": "2", "edges": []}',
    '{"n": true, "r": 2, "edges": []}',
])
def test_json_fields_must_be_integers(text):
    with pytest.raises(ParseError, match="bad JSON graph object"):
        decode_json(text)


def test_file_roundtrips(tmp_path):
    G = graph_from_edges(5, 2, [(0, 1), (2, 4)])
    g6 = tmp_path / "g.g6"
    js = tmp_path / "g.json"
    save_graph(G, str(g6))
    save_graph(G, str(js))
    assert load_graph(str(g6)) == G
    assert load_graph(str(js)) == G


def test_family_file_roundtrips(tmp_path):
    fam = [complete_graph(3, 2), graph_from_edges(4, 2, [(0, 1)])]
    g6 = tmp_path / "fam.g6"
    js = tmp_path / "fam.json"
    save_graph_list(fam, str(g6))
    save_graph_list(fam, str(js))
    assert load_graph_list(str(g6)) == fam
    assert load_graph_list(str(js)) == fam
    # single JSON object is accepted as a one-member family
    js.write_text(encode_json(fam[0]) + "\n")
    assert load_graph_list(str(js)) == [fam[0]]
