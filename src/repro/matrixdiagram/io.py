"""Serialization of matrix diagrams to/from a JSON-compatible form.

The format is a plain dict (level sizes, labels, nodes with their entries)
so MDs — including lumped ones — can be stored, diffed, and shipped
between processes without pickling.  Round-tripping preserves the
represented matrix exactly and the node structure up to nothing (indices,
levels and entries are all kept verbatim).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import MatrixDiagramError
from repro.matrixdiagram.formal_sum import FormalSum
from repro.matrixdiagram.md import MatrixDiagram
from repro.matrixdiagram.node import MDNode
from repro.util.numeric import as_integer

FORMAT_VERSION = 1


def md_to_dict(md: MatrixDiagram) -> Dict:
    """A JSON-compatible dict describing the MD.

    Labels are stringified only if they are not already JSON-native; MDs
    built by this library use tuples of ints, which are stored as lists.
    """
    nodes = []
    for index in md.node_indices():
        node = md.node(index)
        if node.terminal:
            entries = [
                [r, c, value] for r, c, value in sorted(node.entries())
            ]
        else:
            entries = [
                [r, c, sorted(entry.items())]
                for r, c, entry in sorted(node.entries())
            ]
        nodes.append(
            {
                "index": index,
                "level": node.level,
                "terminal": node.terminal,
                "entries": entries,
            }
        )
    labels = md.all_level_labels()
    return {
        "format": FORMAT_VERSION,
        "level_sizes": list(md.level_sizes),
        "root": md.root_index,
        "labels": (
            [[list(l) if isinstance(l, tuple) else l for l in level]
             for level in labels]
            if labels is not None
            else None
        ),
        "nodes": nodes,
    }


def md_from_dict(data: Dict) -> MatrixDiagram:
    """Inverse of :func:`md_to_dict`; raises :class:`MatrixDiagramError`
    for a position, child, level, level size or node index that is not
    an integer."""
    if data.get("format") != FORMAT_VERSION:
        raise MatrixDiagramError(
            f"unsupported MD format {data.get('format')!r}"
        )
    nodes: Dict[int, MDNode] = {}
    try:
        for spec in data["nodes"]:
            if spec["terminal"]:
                entries = {
                    (as_integer(r, "row"), as_integer(c, "column")): float(v)
                    for r, c, v in spec["entries"]
                }
            else:
                entries = {
                    (as_integer(r, "row"), as_integer(c, "column")): FormalSum(
                        {as_integer(n, "child"): float(x) for n, x in terms}
                    )
                    for r, c, terms in spec["entries"]
                }
            nodes[as_integer(spec["index"], "node index")] = MDNode(
                as_integer(spec["level"], "level"),
                entries,
                terminal=bool(spec["terminal"]),
            )
        root = as_integer(data["root"], "root index")
        sizes = [as_integer(n, "level size") for n in data["level_sizes"]]
    except ValueError as exc:
        raise MatrixDiagramError(f"MD {exc}") from None
    labels: Optional[List[List[object]]] = None
    if data.get("labels") is not None:
        labels = [
            [tuple(l) if isinstance(l, list) else l for l in level]
            for level in data["labels"]
        ]
    return MatrixDiagram(sizes, nodes, root, level_state_labels=labels)


def md_to_json(md: MatrixDiagram, indent: Optional[int] = None) -> str:
    """Serialize to a JSON string."""
    return json.dumps(md_to_dict(md), indent=indent)


def md_from_json(text: str) -> MatrixDiagram:
    """Deserialize from a JSON string."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise MatrixDiagramError(
            f"MD data is not valid JSON (truncated or corrupt?): {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise MatrixDiagramError(
            "MD data is not a JSON object (truncated or corrupt?)"
        )
    try:
        return md_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixDiagramError(
            f"malformed MD data (truncated or corrupt?): {exc!r}"
        ) from exc


def save_md(md: MatrixDiagram, path: str) -> None:
    """Write an MD to a JSON file, atomically.

    The bytes go to a temporary file that is fsynced and renamed over
    ``path``, so a crash mid-save leaves either the previous file or the
    complete new one — never a torn, half-written MD.
    """
    from repro.robust.checkpoint import atomic_write_text

    atomic_write_text(path, md_to_json(md))


def load_md(path: str) -> MatrixDiagram:
    """Read an MD from a JSON file.

    A truncated or otherwise corrupt file raises a clear
    :class:`~repro.errors.MatrixDiagramError` instead of an arbitrary
    decoding failure.
    """
    with open(path) as handle:
        return md_from_json(handle.read())
