"""Independent references for the benchmark's correctness gates.

Nothing here imports the library.  Element counts per length come from
the generating-function oracle in tests/series_counts.py, matrices are
rebuilt from words by plain integer products, and region and pairing
values are recomputed from the central coroots in golden.json, which also
holds the answers recorded from the commit the benchmark was defined on
(see make_golden.py).
"""

from __future__ import annotations

import cmath
import hashlib
import importlib.util
import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ATLAS_MAX_RANK = 8
ATLAS_MAX_LENGTH = 12
ATLAS_ARGV = ("atlas", "--max-rank", str(ATLAS_MAX_RANK), "--max-length", str(ATLAS_MAX_LENGTH), "--format", "tsv")
ATLAS_MD5 = "248bab7ab44d096b044a563d7e05e54c"  # stdout of ATLAS_ARGV on the defining commit

BOUNDARY_TOLERANCE = 1e-12  # documented float tolerance of the -g locus
POLE_TOLERANCE = 1e-12  # documented default pole tolerance
VALUE_RTOL = 1e-9  # float results may differ from the reference in rounding only


@lru_cache(maxsize=1)
def golden() -> dict:
    with open(HERE / "golden.json") as fh:
        return json.load(fh)


@lru_cache(maxsize=1)
def series_counts():
    path = ROOT / "tests" / "series_counts.py"
    spec = importlib.util.spec_from_file_location("series_counts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def split_label(label: str) -> tuple[str, int, bool]:
    """("B", 3, True) for "B3affine"."""
    affine = label.endswith("affine")
    core = label[: -len("affine")] if affine else label
    return core[0], int(core[1:]), affine


def level_counts(label: str, bound: int) -> list[int]:
    """Group elements of each length 0..bound, from the oracle."""
    series, rank, affine = split_label(label)
    oracle = series_counts()
    counts = (oracle.affine_counts if affine else oracle.finite_counts)(series, rank, bound)
    return counts


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering of plain data."""
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


# --- atlas --------------------------------------------------------------------


def check_atlas(text: str, argv=ATLAS_ARGV) -> tuple[int, int, list[str]]:
    """(rows, elements searched, problems) for the stdout of an atlas run.

    Every type's ``searched`` must equal the oracle's ball size at the
    row's search bound; the md5 is pinned for ATLAS_ARGV only.
    """
    problems = []
    if tuple(argv) == ATLAS_ARGV and hashlib.md5(text.encode()).hexdigest() != ATLAS_MD5:
        problems.append("atlas md5 differs from the reference")
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split("\t")
    searched_by_type = {}
    try:
        for line in lines[1:]:
            row = dict(zip(header, line.split("\t")))
            searched_by_type[row["type"]] = (int(row["search_bound"]), int(row["searched"]))
    except (KeyError, ValueError) as exc:
        return len(lines) - 1, 0, [f"atlas output does not parse: {exc}"]
    for label, (bound, searched) in searched_by_type.items():
        expected = sum(level_counts(label, bound))
        if searched != expected:
            problems.append(f"{label}: searched {searched}, oracle ball size {expected}")
    total = sum(searched for _, searched in searched_by_type.values())
    return len(lines) - 1, total, problems


# --- words and matrices -------------------------------------------------------


def word_matrix(entries, word) -> list[list[int]]:
    """Action matrix of a word: the product S_i1 S_i2 ... of the node
    reflections, whose row i - 1 is e_i minus column i - 1 of the Cartan
    matrix (column j is the image of simple root j)."""
    n = len(entries)
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for i in word:
        col = i - 1
        for row in m:
            pivot = row[col]
            if pivot:
                for c in range(n):
                    row[c] -= pivot * entries[c][col]
    return m


def matmul(a, b) -> list[list[int]]:
    n = len(a)
    return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)] for r in range(n)]


def as_lists(matrix) -> list[list[int]]:
    return [list(row) for row in matrix]


# --- spectral parameters ------------------------------------------------------


def central(label: str, values):
    weights = golden()["central_coroot"][label]
    return sum(w * x for w, x in zip(weights, values))


def region(label: str, values) -> tuple[str, object]:
    """Region of a real parameter against -2g and -g, as documented:
    exact inputs compare exactly, floats use the boundary tolerance."""
    g = golden()["dual_coxeter"][label]
    c = central(label, values)
    if isinstance(c, (int, Fraction)):
        if c == -g:
            return "boundary", c
    elif abs(c + g) <= BOUNDARY_TOLERANCE:
        return "boundary", c
    if c < -2 * g:
        return "convergent", c
    if c < -g:
        return "continued", c
    return "outside", c


def pairing_point(label: str, nu, nu_prime, truncation):
    """(denominator, pole, value) of the truncated inner product with cusp
    pairing 1 at unshifted parameters nu and nu_prime."""
    summed = [(a + 1) + (b + 1).conjugate() for a, b in zip(nu, nu_prime)]
    at_truncation = sum(s * complex(t) for s, t in zip(summed, truncation))
    denominator = complex(central(label, summed))
    if abs(denominator) < POLE_TOLERANCE:
        return denominator, True, None
    return denominator, False, -(cmath.exp(at_truncation) / denominator)


def close(a, b) -> bool:
    """Numbers equal up to float rounding; [re, im] pairs read as complex."""
    if isinstance(a, (list, tuple)):
        a = complex(*a)
    if isinstance(b, (list, tuple)):
        b = complex(*b)
    return abs(a - b) <= VALUE_RTOL * max(1.0, abs(a), abs(b))
