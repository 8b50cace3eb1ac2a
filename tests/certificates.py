"""Independent oracle: a reading of self-associate certificates.

``check`` takes one certificate as its JSON object (the ambient by type
name) and returns the problems found, none when the trace holds.  The
ambient's rows come from the ``classifier`` catalog, its marks from
``ambient`` and its ball sizes from ``series_counts``; the group acts on
integer root coordinates by s_i(β) = β − ⟨β, α_i^∨⟩·α_i, with
⟨β, α_i^∨⟩ = Σ_k β_k·A[k][i] on the catalog rows A.

- ``levi_longest_word`` has the Levi's positive-root count (the sum of its
  components' exponents) as its length and sends every simple root of Θ
  negative, so it is w0_Θ (Humphreys, *Reflection Groups and Coxeter
  Groups* §1.8);
- ``removed_root_image`` is that word applied to α_c, is positive and has
  coefficient 1 at c;
- ``null_root`` is (marks, 1) on an affine ambient, fixed by every
  reflection, and absent on a finite one;
- an affine ambient has no witness; on a finite one a witness exists
  exactly when w0·α_c = −α_c and its length N − N_Θ is within the bound,
  and it then maps Θ onto Θ, sends α_c negative and has the action matrix
  of its word.  w0 is reached by the descent walk: multiply on the right
  by s_i while some simple root has a positive image;
- ``searched`` is the sum of the ``series_counts`` coefficients up to the
  bound.
"""

from __future__ import annotations

import ambient
import classifier
import series_counts


def _rows(series: str, rank: int, affine: bool):
    for s, r, a, rows in classifier.catalog():
        if (s, r, a) == (series, rank, affine):
            return rows
    return None


def _reflect(rows, beta: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s_i(β) on 0-based node i."""
    value = sum(b * rows[k][i] for k, b in enumerate(beta))
    return tuple(b - value if k == i else b for k, b in enumerate(beta))


def _apply(rows, word, beta: tuple[int, ...]) -> tuple[int, ...]:
    """The element of the 1-based word applied to β: its last letter acts
    first."""
    for letter in reversed(word):
        beta = _reflect(rows, beta, letter - 1)
    return beta


def _simple(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(k == i) for k in range(n))


def _positive(beta) -> bool:
    return all(b >= 0 for b in beta) and any(beta)


def _negative(beta) -> bool:
    return _positive(tuple(-b for b in beta))


def _components(rows, nodes: list[int]) -> list[list[int]]:
    """Connected components of the diagram on the 0-based nodes."""
    left, out = list(nodes), []
    while left:
        comp = [left.pop(0)]
        for i in comp:
            near = [j for j in left if rows[i][j]]
            comp += near
            left = [j for j in left if j not in near]
        out.append(sorted(comp))
    return out


def _positive_root_count(rows, nodes: list[int]) -> int:
    """N_Θ: the sum of the exponents of each classified component."""
    count = 0
    for comp in _components(rows, nodes):
        series, rank, _ = classifier.classify(tuple(tuple(rows[i][j] for j in comp) for i in comp))
        count += sum(series_counts.EXPONENTS[(series, rank)])
    return count


def _longest(rows) -> tuple[list[int], list[tuple[int, ...]]]:
    """(word, images of the simple roots) of w0 of a finite matrix, by the
    descent walk: (w·s_i)(α_j) = w(α_j) − A[j][i]·w(α_i)."""
    n = len(rows)
    images = [_simple(n, j) for j in range(n)]
    word: list[int] = []
    while (i := next((i for i in range(n) if _positive(images[i])), None)) is not None:
        image = images[i]
        images = [tuple(x - rows[j][i] * y for x, y in zip(images[j], image)) for j in range(n)]
        word.append(i + 1)
    return word, images


def check(cert: dict) -> list[str]:
    """The problems in one certificate's trace; empty when it holds."""
    amb = cert["ambient"]
    if "series" not in amb:
        return ["ambient is not given by a type name"]
    series, rank, affine = amb["series"], amb["rank"], amb["affine"]
    rows = _rows(series, rank, affine)
    if rows is None:
        return [f"no catalog rows for {series}{rank}{'affine' * affine}"]
    n, c = len(rows), cert["removed_node"]
    theta = [i for i in range(1, n + 1) if i != c]
    problems = []
    if cert["theta"] != theta:
        problems.append(f"theta {cert['theta']} is not the nodes other than {c}")

    word = cert["levi_longest_word"]
    levi_count = _positive_root_count(rows, [i - 1 for i in theta])
    if len(word) != levi_count or not set(word) <= set(theta):
        problems.append(f"levi_longest_word {word} is not a word of length {levi_count} in theta")
    if not all(_negative(_apply(rows, word, _simple(n, j - 1))) for j in theta):
        problems.append(f"levi_longest_word {word} leaves a simple root of theta positive")

    image = _apply(rows, word, _simple(n, c - 1))
    if cert["removed_root_image"] != list(image):
        problems.append(f"removed_root_image {cert['removed_root_image']}, the word gives {list(image)}")
    if not _positive(image) or image[c - 1] != 1:
        problems.append(f"removed_root_image {list(image)} is not positive with coefficient 1 at {c}")

    if affine:
        null = ambient.highest_root_coords(series, rank) + (1,)
        if cert["null_root"] != list(null):
            problems.append(f"null_root {cert['null_root']} is not (marks, 1) = {list(null)}")
        if any(_reflect(rows, null, i) != null for i in range(n)):
            problems.append("a reflection moves (marks, 1)")
        if cert["witness"] is not None or cert["self_associate"]:
            problems.append("an affine ambient has a witness")
        counts = series_counts.affine_counts(series, rank, cert["search_bound"])
    else:
        if cert["null_root"] is not None:
            problems.append("a finite ambient has a null root")
        w0, images = _longest(rows)
        if len(w0) != sum(series_counts.EXPONENTS[(series, rank)]):
            problems.append(f"w0 has length {len(w0)}, not the sum of the exponents")
        length = len(w0) - levi_count
        exists = images[c - 1] == tuple(-x for x in _simple(n, c - 1)) and length <= cert["search_bound"]
        witness = cert["witness"]
        if (witness is not None) != exists or cert["self_associate"] != exists:
            problems.append(f"witness {witness} where one exists: {exists}")
        elif witness is not None:
            letters = witness["word"]
            columns = [_apply(rows, letters, _simple(n, j)) for j in range(n)]
            if len(letters) != length or witness["length"] != length:
                problems.append(f"witness {letters} does not have length N - N_theta = {length}")
            if witness["matrix"] != [list(row) for row in zip(*columns)]:
                problems.append(f"witness matrix is not the action matrix of {letters}")
            targets = {_simple(n, j - 1) for j in theta}
            if {columns[j - 1] for j in theta} != targets or not _negative(columns[c - 1]):
                problems.append(f"witness {letters} does not map theta onto theta and alpha_c negative")
        counts = series_counts.finite_counts(series, rank, cert["search_bound"])

    if cert["searched"] != sum(counts):
        problems.append(f"searched {cert['searched']}, the series gives {sum(counts)}")
    return problems
