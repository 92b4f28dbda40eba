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
  pipeline.

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

#: The ASCII characters ``str.split`` splits at, other than the newline.
_INNER_SPACE = " \t\v\f\r\x1c\x1d\x1e\x1f"


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
    and ``delimiter`` overrides whitespace splitting.  A delimited file
    with no whitespace inside its lines and no empty field splits the same
    once each delimiter becomes a space, so it takes the whole-stream
    routes (:func:`_splits_like_whitespace`); any other delimited file may
    hold whitespace inside a field or empty fields, so it is split line by
    line at the delimiter only, like the dict reader.
    """
    import numpy as np

    from repro.graph.csr_graph import CSRGraph

    path = Path(path)
    with _open_text(path) as handle:
        text = handle.read()
    data = _data_lines(text, comment)
    if not data:
        return CSRGraph.from_edge_arrays(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            num_vertices=0, labels=[],
        )
    if delimiter is not None:
        if not _splits_like_whitespace(data, delimiter):
            return _ragged_pairs(path, data, delimiter)
        data = data.replace(delimiter, " ")
    # column count from the first data line; extra columns beyond the first
    # two (SNAP timestamps etc.) are parsed and dropped, like the dict reader
    columns = len(data.split("\n", 1)[0].split())
    rows, plain, blank = _uniform_columns(np, data, columns)
    if blank:
        # blank or whitespace-only lines break the layout: drop them and
        # classify what is left
        data = _kept_lines(data, comment)
        rows, plain, _ = _uniform_columns(np, data, columns)
    if not rows:
        return _ragged_pairs(path, data)
    if columns < 2:
        raise ValueError(f"{path}: expected at least two tokens per line")
    values = _parse_int_tokens(np, data, rows * columns, plain)
    if values is None:
        tokens = data.split()
        if len(tokens) != rows * columns:
            # a whitespace character other than space, tab or newline split
            # a token the byte scan counted as one: parse line by line
            return _ragged_pairs(path, data)
        # non-integer labels: parse the first two columns per token exactly
        # like the dict reader's _parse_vertex (extra columns must not leak
        # into the vertex set), factorise in sorted order
        return _pairs_from_label_tokens(tokens[0::columns], tokens[1::columns])
    pairs = values.reshape(-1, columns)[:, :2]
    return CSRGraph.from_label_arrays(pairs[:, 0], pairs[:, 1])


def _uniform_columns(np, data, columns):
    """One byte classification of ``data``: ``(rows, plain, blank)``.

    ``rows`` is the line count when every line holds ``columns`` tokens,
    and 0 otherwise: the exact check the whole-stream parsers need.  They
    reshape the flat token array into rows, which is only sound when the
    file is rectangular; a ragged file whose token total happens to divide
    evenly would otherwise misparse silently.  Tokens are split at space,
    tab and newline only, so a line that ``str.split`` cuts at any other
    whitespace counts fewer tokens here, never more.  A token starts at a
    non-separator byte whose predecessor is a separator.  The file is
    rectangular when it has ``lines × columns`` starts and every newline
    falls between start ``k·columns − 1`` and start ``k·columns`` of the
    sorted start positions: the same answer as counting the starts before
    each newline with one ``searchsorted``, from two strided comparisons.

    ``blank`` says, for a file that is not rectangular, that some line
    holds no token at all (blank or whitespace only), so that dropping the
    empty lines may make it rectangular.  The first and last lines of
    ``data`` hold a token (:func:`_data_lines`), so only an inner line can
    be empty: two consecutive newlines with no start between them.

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
    breaks = np.flatnonzero(newline)
    rows = len(breaks) + 1
    if not (
        columns >= 1
        and len(at) == rows * columns
        and (at[columns - 1:-1:columns] < breaks).all()
        and (at[columns::columns] > breaks).all()
    ):
        before = np.searchsorted(at, breaks)
        return 0, False, bool((before[1:] == before[:-1]).any())
    plain = bool(
        plain
        and len(buf) - at[-1] <= _MAX_PLAIN_TOKEN
        and (at[1:] - at[:-1]).max(initial=0) <= _MAX_PLAIN_TOKEN + 1
    )
    return rows, plain, False


def _splits_like_whitespace(data, delimiter):
    """Whether splitting each line of ``data`` at ``delimiter`` gives the
    same fields as splitting at whitespace after ``replace(delimiter, " ")``.

    It does when every space after the replacement comes from a delimiter
    and separates two non-empty fields: ``data`` is ASCII and holds no
    whitespace but newlines, the delimiter is non-empty and holds no
    whitespace, and no line starts or ends with the delimiter or holds it
    twice in a row (an empty field).  The check is a handful of substring
    scans, a small fraction of the per-line split of
    :func:`_ragged_pairs` that it saves.
    """
    if (
        not delimiter
        or any(ch.isspace() for ch in delimiter)
        or not data.isascii()
        or any(ch in data for ch in _INNER_SPACE)
    ):
        return False
    return not (
        data.startswith(delimiter)
        or data.endswith(delimiter)
        or "\n" + delimiter in data
        or delimiter + "\n" in data
        or delimiter * 2 in data
    )


def _ragged_pairs(path, data, delimiter=None):
    """Per-line parse of ragged or delimited rows: each line's first two fields.

    Semantics identical to :func:`read_edge_list`: a line is stripped, a
    whitespace-only line is skipped, the rest is split at ``delimiter``
    (any whitespace when ``None``), and a one-field line raises — still no
    dict graph.
    """
    first, second = [], []
    for lineno, line in enumerate(data.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(delimiter)
        if len(parts) < 2:
            raise ValueError(
                f"{path}:{lineno}: expected at least two tokens, got {line!r}"
            )
        first.append(parts[0])
        second.append(parts[1])
    return _pairs_from_label_tokens(first, second)


def _pairs_from_label_tokens(first, second):
    """Build a CSRGraph from two parallel token columns via label parsing.

    Self-loops are dropped before the label table is built, so a label that
    only appears in a self-loop is no vertex, as in :func:`read_edge_list`.
    """
    from repro.graph.csr_graph import CSRGraph

    return CSRGraph.from_edges(
        (u, v)
        for u, v in zip(map(_parse_vertex, first), map(_parse_vertex, second))
        if u != v
    )


def _data_lines(text, comment):
    """Normalise an edge-list text to data whose first and last lines hold a token.

    The fast path handles the overwhelmingly common layout — an optional
    block of leading comment / blank lines followed by the data — by
    slicing off the header and the trailing whitespace instead of
    rebuilding the file line by line.  A text with a comment or a carriage
    return inside falls back to :func:`_kept_lines`.  Blank lines inside
    the data are left for the byte pass of :func:`_uniform_columns` to
    find.  Lines end at ``\n`` only, as in the dict reader's line
    iteration: ``str.splitlines`` would also cut at form feeds and other
    separators that the dict reader keeps inside a line.
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
    if (comment and comment in text) or "\r" in text:
        return _kept_lines(text, comment)
    return text.rstrip()


def _kept_lines(text, comment):
    """The lines of ``text`` that hold data, joined: no blank or comment line."""
    return "\n".join(
        line
        for line in text.split("\n")
        if line.strip() and not (comment and line.lstrip().startswith(comment))
    )


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
