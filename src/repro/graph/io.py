"""Reading and writing graphs in plain-text and JSON formats.

The paper's datasets are distributed as whitespace-separated edge lists (SNAP
format); :func:`read_edge_list` accepts that format, including ``#`` comment
lines.  JSON round-tripping is provided for small fixtures checked into test
suites.

Two ingestion paths cover the two graph representations:

* :func:`read_edge_list` — line-by-line parse into the dict
  :class:`~repro.graph.graph.Graph` (reference semantics);
* :func:`read_edge_list_arrays` — whole-file numpy parse straight into a
  :class:`~repro.graph.csr_graph.CSRGraph`: the token stream becomes one
  int64 (or label) array, vertex ids are assigned in sorted label order
  (:meth:`~repro.graph.csr_graph.CSRGraph.from_label_arrays`), and the CSR
  adjacency is assembled without ever materialising a dict adjacency or
  per-edge Python tuples.  This is the entry point of the array-native
  ``backend="csr"`` pipeline.

Both readers transparently decompress ``.gz`` / ``.bz2`` files and accept an
optional ``delimiter`` (default: any whitespace).
"""

from __future__ import annotations

import bz2
import gzip
import io as _io
import json
import warnings
from pathlib import Path
from typing import Optional, Union

from repro.graph.graph import Graph, sorted_vertices

__all__ = [
    "read_edge_list",
    "read_edge_list_arrays",
    "write_edge_list",
    "read_json_graph",
    "write_json_graph",
]

PathLike = Union[str, Path]

_OPENERS = {".gz": gzip.open, ".bz2": bz2.open}

#: Longest token the ``np.fromstring`` route takes: every 18-digit number
#: fits int64, while a longer one may overflow, which that parser saturates
#: to the int64 maximum without a word.
_MAX_PLAIN_TOKEN = 18


def _open_text(path: Path):
    """Open a text file, transparently decompressing ``.gz`` / ``.bz2``."""
    opener = _OPENERS.get(path.suffix.lower())
    if opener is not None:
        return opener(path, "rt", encoding="utf-8")
    return path.open("r", encoding="utf-8")


def read_edge_list(
    path: PathLike, *, comment: str = "#", delimiter: Optional[str] = None
) -> Graph:
    """Read a whitespace-separated edge list into a :class:`Graph`.

    Lines starting with ``comment`` (after stripping) and blank lines are
    ignored.  Vertex tokens that parse as integers are stored as ``int``;
    anything else is kept as a string.  Self-loops are skipped silently and
    duplicate edges collapse (the graph is simple).  ``.gz`` / ``.bz2``
    paths are decompressed transparently, and ``delimiter`` splits on a
    specific separator (e.g. ``","`` for CSV-ish lists) instead of arbitrary
    whitespace.
    """
    graph = Graph()
    path = Path(path)
    with _open_text(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split(delimiter)
            if len(parts) < 2:
                raise ValueError(
                    f"{path}:{lineno}: expected at least two tokens, got {line!r}"
                )
            u, v = _parse_vertex(parts[0]), _parse_vertex(parts[1])
            if u != v:
                graph.add_edge(u, v)
    return graph


def read_edge_list_arrays(
    path: PathLike, *, comment: str = "#", delimiter: Optional[str] = None
):
    """Read an edge list straight into a :class:`~repro.graph.csr_graph.CSRGraph`.

    The array-native sibling of :func:`read_edge_list`: the whole file is
    parsed as one numpy token stream (``fromstring``-style for integer
    vertex labels, a vectorised string factorisation otherwise) and the CSR
    adjacency is built directly from the resulting edge arrays — no dict
    :class:`Graph` and no per-edge tuples in between.  Semantics match the
    dict reader exactly: ``comment`` lines and blanks are ignored, extra
    columns beyond the first two are dropped, self-loops are skipped,
    duplicates collapse, integer tokens become ``int`` labels and anything
    else stays a string.  ``.gz`` / ``.bz2`` are decompressed transparently
    and ``delimiter`` overrides whitespace splitting.
    """
    import numpy as np

    from repro.graph.csr_graph import CSRGraph

    path = Path(path)
    with _open_text(path) as handle:
        text = handle.read()
    data, num_lines = _data_lines(text, comment)
    if not num_lines:
        return CSRGraph.from_edge_arrays(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            num_vertices=0, labels=[],
        )
    if delimiter is not None:
        data = data.replace(delimiter, " ")
    # column count from the first data line; extra columns beyond the first
    # two (SNAP timestamps etc.) are parsed and dropped, like the dict reader
    columns = len(data.split("\n", 1)[0].split())
    uniform, plain = _uniform_columns(np, data, num_lines, columns)
    if not uniform:
        return _ragged_pairs(np, path, data)
    if columns < 2:
        raise ValueError(f"{path}: expected at least two tokens per line")
    values = _parse_int_tokens(np, data, num_lines * columns, plain)
    if values is None:
        tokens = data.split()
        if len(tokens) != num_lines * columns:
            # a whitespace character other than space, tab or newline split
            # a token the byte scan counted as one: parse line by line
            return _ragged_pairs(np, path, data)
        # non-integer labels: parse the first two columns per token exactly
        # like the dict reader's _parse_vertex (extra columns must not leak
        # into the vertex set), factorise in sorted order
        return _pairs_from_label_tokens(
            np, tokens[0::columns], tokens[1::columns]
        )
    pairs = values.reshape(-1, columns)[:, :2]
    return CSRGraph.from_label_arrays(pairs[:, 0], pairs[:, 1])


def _uniform_columns(np, data, num_lines, columns):
    """One byte classification of ``data``: ``(uniform, plain)``.

    ``uniform`` is the exact check that every data line holds ``columns``
    tokens.  The whole-stream parsers reshape the flat token array into
    rows, which is only sound when the file is rectangular; a ragged file
    whose token total happens to divide evenly would otherwise misparse
    silently.  Tokens are split at space, tab and newline only, so a line
    that ``str.split`` cuts at any other whitespace counts fewer tokens
    here, never more.  A token starts at a non-separator byte whose
    predecessor is a separator.  The file is rectangular when it has
    ``lines × columns`` starts and every newline falls between start
    ``k·columns − 1`` and start ``k·columns`` of the sorted start
    positions: the same answer as counting the starts before each newline
    with one ``searchsorted``, from two strided comparisons.

    ``plain`` says the stream may go to ``np.fromstring``: every byte is a
    digit, space, tab or newline, and no token is longer than 18 bytes.
    The gap between consecutive token starts bounds a token's length, so
    a token that could overflow int64 (which ``np.fromstring`` saturates
    silently) cannot hide behind the check.
    """
    buf = np.frombuffer(data.encode("utf-8"), dtype=np.uint8)
    newline = buf == 10
    sep = (buf == 32) | (buf == 9)
    sep |= newline
    starts = ~sep
    plain = np.count_nonzero((buf - np.uint8(48)) < 10) == np.count_nonzero(starts)
    starts[1:] &= sep[:-1]
    at = np.flatnonzero(starts)
    if columns < 1 or len(at) != num_lines * columns:
        return False, False
    breaks = np.flatnonzero(newline)
    if not (
        (at[columns - 1:-1:columns] < breaks).all()
        and (at[columns::columns] > breaks).all()
    ):
        return False, False
    plain = bool(
        plain
        and len(buf) - at[-1] <= _MAX_PLAIN_TOKEN
        and (at[1:] - at[:-1]).max(initial=0) <= _MAX_PLAIN_TOKEN + 1
    )
    return True, plain


def _ragged_pairs(np, path, data):
    """Per-line parse of ragged rows: each line's first two tokens.

    Semantics identical to :func:`read_edge_list` (a whitespace-only line
    is skipped, a one-token line raises) — still no dict graph.
    """
    first, second = [], []
    for lineno, line in enumerate(data.split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ValueError(
                f"{path}:{lineno}: expected at least two tokens, "
                f"got {line.strip()!r}"
            )
        first.append(parts[0])
        second.append(parts[1])
    return _pairs_from_label_tokens(np, first, second)


def _pairs_from_label_tokens(np, first, second):
    """Build a CSRGraph from two parallel token columns via label parsing.

    Self-loops are dropped before the label table is built, so a label that
    only appears in a self-loop is no vertex, as in :func:`read_edge_list`.
    """
    from repro.graph.csr_graph import CSRGraph

    pairs = [
        (u, v)
        for u, v in zip(map(_parse_vertex, first), map(_parse_vertex, second))
        if u != v
    ]
    labels = sorted_vertices({label for pair in pairs for label in pair})
    ids = {label: i for i, label in enumerate(labels)}
    count = len(pairs)
    src = np.fromiter((ids[u] for u, _ in pairs), dtype=np.int64, count=count)
    dst = np.fromiter((ids[v] for _, v in pairs), dtype=np.int64, count=count)
    return CSRGraph.from_edge_arrays(
        src, dst, num_vertices=len(labels), labels=labels
    )


def _data_lines(text, comment):
    """Normalise an edge-list text to pure data: ``(data, line_count)``.

    The fast path handles the overwhelmingly common layout — an optional
    block of leading comment / blank lines followed by uniform data — by
    slicing off the header and *counting* newlines instead of rebuilding the
    file line by line.  Anything irregular (interior comments, blank or
    whitespace-only lines, carriage returns) falls back to an exact
    line-wise filter; both paths return the same data stream.  Lines end at
    ``\n`` only, as in the dict reader's line iteration: ``str.splitlines``
    would also cut at form feeds and other separators that the dict reader
    keeps inside a line.
    """
    # slice off leading comment / blank lines without touching the rest
    pos = 0
    length = len(text)
    while pos < length:
        newline = text.find("\n", pos)
        end = length if newline == -1 else newline
        stripped = text[pos:end].strip()
        if stripped and not (comment and stripped.startswith(comment)):
            break
        pos = length if newline == -1 else newline + 1
    text = text[pos:]
    irregular = (
        (comment and comment in text)
        or "\n\n" in text
        or " \n" in text
        or "\t\n" in text
        or "\r" in text
    )
    if irregular:
        lines = [
            line
            for line in text.split("\n")
            if line.strip()
            and not (comment and line.lstrip().startswith(comment))
        ]
        return "\n".join(lines), len(lines)
    text = text.rstrip()
    if not text:
        return "", 0
    return text, text.count("\n") + 1


def _parse_int_tokens(np, data, expected, plain):
    """Parse the whole token stream as int64, or ``None`` for the label path.

    ``np.fromstring(..., sep=' ')`` is the fastest text parser numpy ships
    (deprecated, not removed — hence the targeted warning filter), but it
    silently stops at the first malformed token and saturates an integer
    that overflows, so it is only trusted on a ``plain`` stream (digits,
    space, tab and newline, no token over 18 bytes; see
    :func:`_uniform_columns`) whose parsed count matches ``expected``.  Any
    other stream — signs, leading ``+``, other whitespace, non-ASCII digits,
    long tokens — goes through ``np.array`` over the split tokens, which
    converts like ``int`` and raises on bad input or overflow.
    """
    if plain:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                values = np.fromstring(data, dtype=np.int64, sep=" ")
            if values.size == expected:
                return values
        except (AttributeError, ValueError, TypeError,
                _io.UnsupportedOperation):
            pass
    tokens = data.split()
    if len(tokens) != expected:
        return None
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        return None


def write_edge_list(graph, path: PathLike) -> None:
    """Write the graph as one ``u v`` pair per line.

    Edges are sorted with the same type-stable key as
    :func:`~repro.graph.graph.sorted_vertices` (integer labels numerically,
    mixed types grouped deterministically) — sorting by ``repr`` put vertex
    10 before vertex 2, so a write → read round-trip reordered integer
    graphs relative to every other ordering in the package.  Accepts either
    a :class:`Graph` or a :class:`~repro.graph.csr_graph.CSRGraph`.
    """
    path = Path(path)
    edges = list(graph.edges())
    try:
        edges.sort(key=lambda e: ((type(e[0]).__name__, e[0]),
                                  (type(e[1]).__name__, e[1])))
    except TypeError:
        edges.sort(key=lambda e: ((type(e[0]).__name__, repr(e[0])),
                                  (type(e[1]).__name__, repr(e[1]))))
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# vertices={graph.number_of_vertices()} "
                     f"edges={graph.number_of_edges()}\n")
        for u, v in edges:
            handle.write(f"{u} {v}\n")


def read_json_graph(path: PathLike) -> Graph:
    """Read a graph previously written by :func:`write_json_graph`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if "edges" not in payload:
        raise ValueError(f"{path}: missing 'edges' key")
    graph = Graph(vertices=payload.get("vertices", []))
    for u, v in payload["edges"]:
        graph.add_edge(u, v)
    return graph


def write_json_graph(graph: Graph, path: PathLike) -> None:
    """Write the graph as ``{"vertices": [...], "edges": [[u, v], ...]}``."""
    path = Path(path)
    payload = {
        "vertices": sorted_vertices(graph.vertices()),
        "edges": sorted(
            ([u, v] for u, v in graph.edges()),
            key=lambda e: (repr(e[0]), repr(e[1])),
        ),
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _parse_vertex(token: str):
    """Parse a vertex token: integers become ``int``, everything else ``str``."""
    try:
        return int(token)
    except ValueError:
        return token
