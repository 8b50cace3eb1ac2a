"""Independent oracle: the atlas table, rebuilt from the other oracles.

One row per affine type of the catalog and omitted node, in series then
rank order, as ``atlas --format tsv`` prints it.  The matrices are the
catalog's, read off the Euclidean roots in ``ambient``, and so is the
dual Coxeter number g; the Levi labels come from ``classifier`` and
``searched`` from ``series_counts``.  The constant-term rule is derived
here from the Levi label multisets alone: over an affine ambient no
maximal subset is self-associate (the whole diagram's group is
infinite), so a subset's constant term is trivial exactly when no other
maximal subset has the same Levi components.
"""

from __future__ import annotations

import ambient
import classifier
import series_counts

COLUMNS = (
    "type",
    "removed_node",
    "levi",
    "center_rank",
    "dual_coxeter",
    "convergence_threshold",
    "continuation_threshold",
    "self_associate",
    "trivial_constant_term",
    "search_bound",
    "searched",
)


def _components(rows, nodes) -> list[list[int]]:
    """Connected components of the diagram on the given 0-based nodes."""
    left, out = list(nodes), []
    while left:
        comp = [left.pop(0)]
        for i in comp:
            near = [j for j in left if rows[i][j]]
            comp += near
            left = [j for j in left if j not in near]
        out.append(sorted(comp))
    return out


def levi(rows, removed: int) -> tuple[str, ...]:
    """Sorted labels of the components left when the 0-based node
    ``removed`` is taken out."""
    kept = [i for i in range(len(rows)) if i != removed]
    types = [classifier.classify([[rows[i][j] for j in comp] for i in comp])[:2] for comp in _components(rows, kept)]
    return tuple(f"{series}{rank}" for series, rank in sorted(types))


def table(max_rank: int, bound: int):
    """The atlas rows, as tuples in ``COLUMNS`` order."""
    for series, rank, affine, rows in classifier.catalog():
        if not affine or rank > max_rank:
            continue
        g = ambient.dual_coxeter_number(series, rank)
        searched = sum(series_counts.affine_counts(series, rank, bound))
        levis = [levi(rows, c) for c in range(len(rows))]
        for c, labels in enumerate(levis):
            trivial = levis.count(labels) == 1
            yield (f"{series}{rank}affine", c + 1, "+".join(labels), 1, g, -2 * g, -g, False, trivial, bound, searched)


def tsv(max_rank: int = 8, bound: int = 16) -> str:
    """The table as ``atlas --format tsv`` prints it, final newline included."""

    def cell(x) -> str:
        return ("true" if x else "false") if isinstance(x, bool) else str(x)

    return "".join("\t".join(map(cell, row)) + "\n" for row in [COLUMNS, *table(max_rank, bound)])
