"""Graph serialization: graph6 for 2-graphs, explicit JSON for any r.

graph6 follows the published format exactly for the single-byte size
form (n <= 62): size byte n+63, then the upper triangle of the
adjacency matrix column by column, packed into 6-bit groups (first bit
is the group's most significant), each group +63.  The column-major
pair order (0,1),(0,2),(1,2),(0,3),... coincides with colex rank, so
the graph6 bit stream is our edge_mask read from bit 0 upward.

The JSON form is {"n": int, "r": int, "edges": [[v, ...], ...]} with
every edge sorted and the edge list in colex order.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import comb
from operator import index

from .errors import ParameterError, ParseError
from .hypergraph import RUniformGraph, graph_from_edges


def encode_graph6(G: RUniformGraph) -> str:
    if G.r != 2:
        raise ParameterError("graph6 encodes 2-graphs only")
    if G.n > 62:
        raise ParameterError("graph6 single-byte size form requires n <= 62")
    nbits = comb(G.n, 2)
    chars = [chr(G.n + 63)]
    for group_start in range(0, nbits, 6):
        val = 0
        for j in range(6):
            k = group_start + j
            bit = (G.edge_mask >> k) & 1 if k < nbits else 0
            val = (val << 1) | bit
        chars.append(chr(val + 63))
    return "".join(chars)


def decode_graph6(text: str) -> RUniformGraph:
    if not text:
        raise ParseError("empty graph6 string", 0)
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ParseError(f"size byte {text[0]!r} outside single-byte range", 0)
    nbits = comb(n, 2)
    expected = (nbits + 5) // 6
    if len(text) - 1 != expected:
        raise ParseError(
            f"need {expected} data bytes for n={n}, got {len(text) - 1}",
            min(len(text), 1 + expected),
        )
    mask = 0
    for pos, ch in enumerate(text[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ParseError(f"data byte {ch!r} outside graph6 range", pos)
        for j in range(6):
            k = (pos - 1) * 6 + j
            bit = (val >> (5 - j)) & 1
            if k < nbits:
                mask |= bit << k
            elif bit:
                raise ParseError("nonzero padding bits", pos)
    return RUniformGraph(n, 2, mask)


def graph_to_json_obj(G: RUniformGraph) -> dict:
    return {"n": G.n, "r": G.r, "edges": [list(e) for e in G.edges()]}


def _json_int(value) -> int:
    """An integer field of a decoded JSON value.  Floats, strings and
    booleans raise TypeError, which each reader reports as a ParseError."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return index(value)


def _json_fraction(value) -> Fraction:
    """A rational field of a decoded JSON value: an integer or a string in
    Fraction syntax such as "1/3".  Floats and booleans raise TypeError,
    bad strings and zero denominators ValueError, which each reader
    reports as a ParseError."""
    if not isinstance(value, str):
        return Fraction(_json_int(value))
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def graph_from_json_obj(obj) -> RUniformGraph:
    try:
        n, r, edges = _json_int(obj["n"]), _json_int(obj["r"]), obj["edges"]
        return graph_from_edges(n, r, [tuple(map(_json_int, e)) for e in edges])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad JSON graph object: {exc}", 0) from None


def encode_json(G: RUniformGraph) -> str:
    return json.dumps(graph_to_json_obj(G))


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from None
    except ValueError:  # an integer longer than int() parses
        raise ParseError("invalid JSON: an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits", 0) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", 0) from None


def load_json(path: str):
    """The JSON value in a file; malformed JSON raises ParseError."""
    with open(path, encoding="utf-8") as fh:
        return _parse_json(fh.read())


def decode_json(text: str) -> RUniformGraph:
    return graph_from_json_obj(_parse_json(text))


def load_graph(path: str) -> RUniformGraph:
    """Read one graph from a file: graph6 if .g6, JSON otherwise."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read().strip()
    if path.endswith(".g6"):
        return decode_graph6(text)
    return decode_json(text)


def save_graph(G: RUniformGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if path.endswith(".g6"):
            fh.write(encode_graph6(G) + "\n")
        else:
            fh.write(encode_json(G) + "\n")


def load_graph_list(path: str) -> list:
    """Family file: newline-separated graph6 (.g6) or a JSON array."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".g6"):
        return [decode_graph6(line.strip()) for line in text.splitlines() if line.strip()]
    arr = _parse_json(text)
    if not isinstance(arr, list):
        arr = [arr]
    return [graph_from_json_obj(o) for o in arr]


def save_graph_list(graphs, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if path.endswith(".g6"):
            for G in graphs:
                fh.write(encode_graph6(G) + "\n")
        else:
            fh.write(json.dumps([graph_to_json_obj(G) for G in graphs]) + "\n")
