"""Inputs, passes and correctness gates of the three benchmark workloads.

For each workload, ``build(name, seed)`` makes the inputs (same seed, same
inputs), ``run(name, inputs)`` does one pass and returns a ``Pass`` with
the outputs and the time of each unit of work, and ``check(name, inputs,
outputs)`` returns the failed-operation count and the problems found.
A pass is split into units of a second or less.  Around each unit a
speed probe times a fixed piece of work, and the unit's time is scaled by
the probe's full-speed time over its time now (``Pass.scaled_units``), so
a pass reads in seconds at the machine's full speed.  On a shared machine
the same code runs at two speeds about 1.5x apart, switching every few
seconds and sometimes staying slow for minutes; unscaled pass times
spread by a quarter across runs, scaled ones by about five percent.  Passes call the library through module
attributes (``weyl.from_word``, never a name bound at import time), so a
tracer that replaces those attributes sees every call.

Each workload keeps its work per pass the same on every seed: the seed
picks which inputs are used, not how many.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import oracle
from loopatlas import cartan, cli, criterion, maass_selberg, parabolic, roots, serialize, weyl
from loopatlas.errors import LoopAtlasError

NAMES = ("atlas", "stream", "catalog")
MODULES = (cartan, roots, weyl, parabolic, criterion, maass_selberg, serialize, cli)

# stream: elements taken from enumerate_elements per seeded type, finite
# witness searches on every (type, node) pair, seeded random words
ENUM_POOL = ("A5affine", "B5affine", "C5affine", "D5affine")  # one rank, similar cost per element
ENUM_PICKS = 3
ENUM_BUDGET = 5000
WORD_ITEMS = 2000
WORD_MAX_LENGTH = 16
WORD_BLOCK = 100  # word pairs per timed unit

# catalog
CONSTANT_TERM_BLOCK = 8  # maximal subsets per timed unit
FROM_MATRIX_CASES = 150
LEVI_CASES = 300
GODEMENT_CASES = 3000  # exact, and as many float
SCAN_TYPE = "E8affine"
SCAN_GRID = 150  # parameters on each side of the grid
SCAN_POLE_EVERY = 10  # every tenth second parameter is the pole partner of a first one
SCAN_BLOCKS = 10  # region_scan calls, each on a slice of the first parameters
REJECT_CASES = 20  # per rejection kind
CALL_BLOCKS = 6  # timed units for each of from_matrix, levi and the two godement kinds

# the speed probes' times at full speed on the machine that defined the
# benchmark (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6); scaled times read
# as seconds there
PYTHON_PROBE_SECONDS = 0.000672
NUMPY_PROBE_SECONDS = 0.00124
_PROBE_KEYS = np.ascontiguousarray(
    np.random.default_rng(0).integers(-50, 50, size=(6000, 49), dtype=np.int16)
).view(np.dtype((np.void, 98))).ravel()


@dataclass
class Pass:
    outputs: object
    units: list[tuple[str, float, float]] = field(default_factory=list)  # (section, seconds, speed factor)
    counts: dict[str, int] = field(default_factory=dict)  # operations per section
    work: int = 0  # atlas: elements searched; stream: elements produced; catalog: calls answered
    attempted: int = 0  # operations whose outcome is checked
    done: float = 0.0  # time.monotonic() at the end of the last library call

    def scaled_units(self) -> list[tuple[str, float]]:
        """(section, seconds at full speed) per unit, in pass order."""
        return scaled(self.units)


def scaled(units) -> list[tuple[str, float]]:
    return [(section, seconds * factor) for section, seconds, factor in units]


def _fastest_of_three(work) -> float:
    """Fastest of three timings of ``work``; drops one-off stalls."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def _python_work() -> None:
    items = []
    for i in range(3000):
        items.append([i, (i, i + 1), str(i)])
        if len(items) > 500:
            items.clear()


def _numpy_work() -> None:
    _PROBE_KEYS.copy().sort()


def python_probe() -> float:
    """Speed factor now for interpreter-bound code: the full-speed time of
    a loop that builds small lists, tuples and strings over its time now."""
    return PYTHON_PROBE_SECONDS / _fastest_of_three(_python_work)


def numpy_probe() -> float:
    """Speed factor now for array-bound code: the full-speed time of
    sorting fixed byte keys, as the level engine does, over its time now."""
    return NUMPY_PROBE_SECONDS / _fastest_of_three(_numpy_work)


def _rng(seed: int, part: str) -> random.Random:
    return random.Random(f"{seed}:{part}")


class Clock:
    """perf_counter time of each unit of work, tagged with its section,
    with the mean speed factor of probes taken just before and after it."""

    def __init__(self, probe=python_probe) -> None:
        self.probe = probe
        self.units: list[tuple[str, float, float]] = []

    @contextlib.contextmanager
    def unit(self, section: str):
        before = self.probe()
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self.units.append((section, seconds, (before + self.probe()) / 2))


def _blocks(items: list, count: int) -> list[list]:
    """``items`` cut into ``count`` consecutive slices of near-equal size."""
    return [items[k * len(items) // count : (k + 1) * len(items) // count] for k in range(count)]


# --- atlas ---------------------------------------------------------------------


def _build_atlas(seed: int) -> dict:
    return {"argv": oracle.ATLAS_ARGV}


def _run_atlas(inputs: dict) -> Pass:
    """The atlas command through cli.main, as ``python -m loopatlas`` runs
    it, with stdout captured.  Each call of maximal_certificates is
    stamped (one call per type), which splits the pass into units; the
    numpy speed probe runs at every stamp."""
    sweep = parabolic.maximal_certificates
    probes = [numpy_probe()]
    marks = []  # (end of one unit, start of the next)

    def stamped(*args, **kwargs):
        end = time.perf_counter()
        probes.append(numpy_probe())
        marks.append((end, time.perf_counter()))
        return sweep(*args, **kwargs)

    buf = io.StringIO()
    parabolic.maximal_certificates = stamped
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(inputs["argv"]))
        end = time.perf_counter()
        done = time.monotonic()
        probes.append(numpy_probe())
    finally:
        parabolic.maximal_certificates = sweep
    if code != 0:
        raise RuntimeError(f"atlas exited with {code}")
    text = buf.getvalue()
    rows, searched, _ = oracle.check_atlas(text, inputs["argv"])
    starts = [start] + [b for _, b in marks]
    ends = [a for a, _ in marks] + [end]
    return Pass(
        outputs=text,
        units=[("atlas", e - s, (p + q) / 2) for s, e, (p, q) in zip(starts, ends, itertools.pairwise(probes))],
        counts={"atlas": rows},
        work=searched,
        attempted=rows,
        done=done,
    )


def _check_atlas(inputs: dict, text: str) -> tuple[int, list[str]]:
    _rows, _searched, problems = oracle.check_atlas(text, inputs["argv"])
    return len(problems), problems


# --- stream --------------------------------------------------------------------


def _enum_bound(label: str) -> int:
    """Smallest length bound whose ball holds ENUM_BUDGET elements."""
    bound = 0
    while sum(oracle.level_counts(label, bound)) < ENUM_BUDGET:
        bound += 1
    return bound


def _build_stream(seed: int) -> dict:
    rng = _rng(seed, "enumerate")
    enum = []
    for _ in range(ENUM_PICKS):
        label = rng.choice(ENUM_POOL)
        enum.append((cartan.parse_type(label), _enum_bound(label)))
    pairs = [(cm, node) for cm in cartan.all_types(parabolic.FINITE_RANK_LIMIT, affine=False) for node in cm.nodes]
    _rng(seed, "finite").shuffle(pairs)
    rng = _rng(seed, "words")
    affine = cartan.all_types(8)
    words = []
    for _ in range(WORD_ITEMS):
        cm = rng.choice(affine)
        a, b = (
            tuple(rng.randint(1, cm.size) for _ in range(rng.randint(0, WORD_MAX_LENGTH)))
            for _ in range(2)
        )
        words.append((cm, a, b))
    return {"enum": enum, "finite": pairs, "words": words}


def _run_stream(inputs: dict) -> Pass:
    clock = Clock()
    enumerated = []
    for cm, bound in inputs["enum"]:
        with clock.unit("enumerate"):
            enumerated.append(list(itertools.islice(weyl.enumerate_elements(cm, bound), ENUM_BUDGET)))
    certs = []
    for cm, node in inputs["finite"]:
        with clock.unit("finite"):
            certs.append(parabolic.finite_self_associate(cm, node))
    ops = []
    for block in _blocks(inputs["words"], len(inputs["words"]) // WORD_BLOCK):
        with clock.unit("words"):
            for cm, a, b in block:
                w1 = weyl.from_word(cm, a)
                w2 = weyl.from_word(cm, b)
                ops.append((w1, w2, weyl.inverse(w1), weyl.compose(w1, w2), weyl.reduce_word(cm, a)))
    done = time.monotonic()
    n_elements = sum(len(batch) for batch in enumerated)
    outputs = {
        "enum": [
            [cm.label, bound, [[list(w.word), oracle.as_lists(w.matrix)] for w in batch]]
            for (cm, bound), batch in zip(inputs["enum"], enumerated)
        ],
        "finite": [
            [c.ambient.label, c.removed_node, c.self_associate, list(c.witness.word) if c.witness else None, c.searched]
            for c in certs
        ],
        "words": [
            [[list(w.word), oracle.as_lists(w.matrix)] for w in op[:4]] + [list(op[4])] for op in ops
        ],
    }
    return Pass(
        outputs=outputs,
        units=clock.units,
        counts={"enumerate": n_elements, "finite": len(certs), "words": 5 * len(ops)},
        work=n_elements + 4 * len(ops),  # reduce_word returns a word, not an element
        attempted=n_elements + len(certs) + 5 * len(ops),
        done=done,
    )


def _check_stream(inputs: dict, outputs: dict) -> tuple[int, list[str]]:
    problems = []
    for (cm, bound), (label, _, batch) in zip(inputs["enum"], outputs["enum"]):
        if len(batch) != ENUM_BUDGET:
            problems.append(f"{label}: {len(batch)} elements, expected {ENUM_BUDGET}")
        expected = oracle.level_counts(label, bound)
        lengths = [len(word) for word, _ in batch]
        if lengths != sorted(lengths) or set(lengths) != set(range(lengths[-1] + 1)):
            problems.append(f"{label}: lengths are not consecutive, shortest first")
        for length, count in itertools.groupby(lengths):
            count = len(list(count))
            partial = length == lengths[-1] and len(batch) == ENUM_BUDGET
            if count > expected[length] or (count < expected[length] and not partial):
                problems.append(f"{label}: {count} elements of length {length}, oracle {expected[length]}")
        if len({str(m) for _, m in batch}) != len(batch):
            problems.append(f"{label}: repeated elements")
        bad = sum(oracle.word_matrix(cm.entries, word) != m for word, m in batch)
        if bad:
            problems.append(f"{label}: {bad} words do not rebuild their matrices")
    reference = {(label, node): rest for label, node, *rest in oracle.golden()["finite_witness"]}
    for label, node, *rest in outputs["finite"]:
        if reference.get((label, node)) != rest:
            problems.append(f"finite witness {label} node {node}: {rest}, reference {reference.get((label, node))}")
    for (cm, a, b), (w1, w2, inv, comp, reduced) in zip(inputs["words"], outputs["words"]):
        e = cm.entries
        m1, m2 = oracle.word_matrix(e, a), oracle.word_matrix(e, b)
        ident = oracle.word_matrix(e, ())
        expect = [(w1, m1, len(a)), (w2, m2, len(b)), (inv, oracle.word_matrix(e, a[::-1]), len(a)),
                  (comp, oracle.matmul(m1, m2), len(a) + len(b))]
        ok = all(
            w[1] == m and oracle.word_matrix(e, w[0]) == m and len(w[0]) <= n and (n - len(w[0])) % 2 == 0
            for w, m, n in expect
        )
        ok = ok and oracle.matmul(inv[1], m1) == ident and reduced == w1[0]
        if not ok:
            problems.append(f"word ops on {cm.label} {a} {b} disagree with the matrix oracle")
    return len(problems), problems


# --- catalog -------------------------------------------------------------------


def _exact_text(x):
    return f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else x


def _godement_values(rng: random.Random, cm, exact: bool) -> list:
    """Seeded parameter; one in eight is moved onto -g, one in eight onto -2g."""
    if exact:
        values = [Fraction(rng.randint(-40, 12), rng.randint(1, 4)) for _ in range(cm.size)]
    else:
        values = [rng.uniform(-5.0, 1.5) for _ in range(cm.size)]
    g = oracle.golden()["dual_coxeter"][cm.label]
    pick = rng.randrange(8)
    if pick < 2:
        # the attached node has central coefficient 1
        values[-1] += (-g if pick == 0 else -2 * g) - oracle.central(cm.label, values)
    return values


def _rejection_cases(seed: int, affine) -> list[tuple[str, object, str, tuple]]:
    """Malformed inputs as (kind, module, function, args).

    The last three kinds are defects the defining commit accepts instead
    of rejecting; they count as failed operations until they are fixed.
    """
    rng = _rng(seed, "reject")
    twisted = [tuple(zip(*cm.entries)) for cm in affine if tuple(zip(*cm.entries)) != cm.entries]
    twisted += [((2, -4), (-1, 2)), ((2, -1), (-4, 2))]
    cases = []
    for _ in range(REJECT_CASES):
        cm = rng.choice(affine)
        n = cm.size
        keep = rng.sample(cm.nodes, rng.randint(1, n - 2)) if n > 2 else [rng.choice(cm.nodes)]
        spare = rng.choice([i for i in cm.nodes if i not in keep])
        rows = [list(r) for r in rng.choice(affine).entries]
        rows[rng.randrange(len(rows))].append(rng.choice((0, -1)))
        cases += [
            ("node_out_of_range", parabolic, "parabolic_subset", (cm, keep[:-1] + [rng.choice((0, -1, n + 1))])),
            ("node_duplicate", parabolic, "parabolic_subset", (cm, keep + [keep[0]])),
            ("matrix_not_square", cartan, "from_matrix", (rows,)),
            ("matrix_twisted", cartan, "from_matrix", (rng.choice(twisted),)),
            ("functional_wrong_length", criterion, "godement_cuspidal",
             (cm, criterion.functional([-1] * (n + rng.choice((-1, 1)))))),
            ("letter_out_of_range", weyl, "from_word", (cm, tuple(keep) + (rng.choice((0, n + 1)),))),
            ("node_not_integer", parabolic, "parabolic_subset", (cm, keep[:-1] + [spare + 0.5])),
            ("functional_nan", criterion, "godement_cuspidal", (cm, criterion.functional([math.nan] * n))),
            ("letter_not_integer", weyl, "from_word", (cm, (float(rng.choice(cm.nodes)), True))),
        ]
    return cases


def _build_catalog(seed: int) -> dict:
    affine = cartan.all_types(8)
    maximal = [p for cm in affine for p in parabolic.maximal_parabolics(cm)]
    _rng(seed, "constant_term").shuffle(maximal)

    rng = _rng(seed, "from_matrix")
    pool = cartan.all_types(8, affine=False) + affine
    matrices = []
    for _ in range(FROM_MATRIX_CASES):
        cm = rng.choice(pool)
        perm = list(range(cm.size - 1 if cm.is_affine else cm.size))
        rng.shuffle(perm)
        if cm.is_affine:
            perm.append(cm.size - 1)  # the attached node stays last
        matrices.append((cm, [[cm.entries[i][j] for j in perm] for i in perm]))

    rng = _rng(seed, "levi")
    subsets = []
    for _ in range(LEVI_CASES):
        cm = rng.choice(affine)
        mask = rng.randrange((1 << cm.size) - 1)
        nodes = [i + 1 for i in range(cm.size) if mask >> i & 1]
        rng.shuffle(nodes)
        subsets.append((cm, mask, nodes))

    godement = {}
    for kind in ("exact", "float"):
        rng = _rng(seed, f"godement_{kind}")
        cases = []
        for _ in range(GODEMENT_CASES):
            cm = rng.choice(affine)
            values = _godement_values(rng, cm, kind == "exact")
            cases.append((cm, values, criterion.functional(values)))
        godement[kind] = cases

    rng = _rng(seed, "scan")
    scan_cm = cartan.parse_type(SCAN_TYPE)

    def parameter():
        return [complex(rng.uniform(-4.0, 0.0), rng.uniform(-3.0, 3.0)) for _ in range(scan_cm.size)]

    nus = [parameter() for _ in range(SCAN_GRID)]
    nu_primes = [
        [-x.conjugate() - 2 for x in rng.choice(nus)] if k % SCAN_POLE_EVERY == 0 else parameter()
        for k in range(SCAN_GRID)
    ]
    truncation = tuple(rng.uniform(-0.5, 0.5) for _ in range(scan_cm.size))
    return {
        "maximal": maximal,
        "matrices": matrices,
        "subsets": subsets,
        "godement": godement,
        "scan": (scan_cm, nus, nu_primes, truncation,
                 [criterion.functional(v) for v in nus], [criterion.functional(v) for v in nu_primes]),
        "reject": _rejection_cases(seed, affine),
    }


def _run_catalog(inputs: dict) -> Pass:
    clock = Clock()
    reports = []
    for block in _blocks(inputs["maximal"], len(inputs["maximal"]) // CONSTANT_TERM_BLOCK):
        with clock.unit("constant_term"):
            reports += [parabolic.constant_term_is_trivial(p) for p in block]
    built = []
    for block in _blocks(inputs["matrices"], CALL_BLOCKS):
        with clock.unit("from_matrix"):
            built += [cartan.from_matrix(rows) for _, rows in block]
    levis = []
    for block in _blocks(inputs["subsets"], CALL_BLOCKS):
        with clock.unit("levi"):
            levis += [parabolic.levi_type(parabolic.parabolic_subset(cm, nodes)) for cm, _, nodes in block]
    godement = {}
    for kind, cases in inputs["godement"].items():
        godement[kind] = []
        for block in _blocks(cases, CALL_BLOCKS):
            with clock.unit(f"godement_{kind}"):
                godement[kind] += [criterion.godement_cuspidal(cm, f) for cm, _, f in block]
    scan_cm, _, _, truncation, nus, nu_primes = inputs["scan"]
    scans = []
    for block in _blocks(nus, SCAN_BLOCKS):
        with clock.unit("scan"):
            report = maass_selberg.region_scan(scan_cm, block, nu_primes, truncation)
        with clock.unit("scan_json"):
            scans.append(maass_selberg.scan_to_json(report))
    outcomes = []
    with clock.unit("reject"):
        for kind, module, name, args in inputs["reject"]:
            try:
                getattr(module, name)(*args)
                outcomes.append([kind, "accepted"])
            except LoopAtlasError:
                outcomes.append([kind, "rejected"])
            except Exception as exc:  # a crash on malformed input is a failed operation
                outcomes.append([kind, f"raised {type(exc).__name__}"])
    done = time.monotonic()
    outputs = {
        "constant_term": [
            [r.certificate.ambient.label, r.certificate.removed_node, r.trivial, r.reason] for r in reports
        ],
        "from_matrix": [[cm.label, cm.is_affine, oracle.as_lists(cm.entries)] for cm in built],
        "levi": [["+".join(lt.labels), lt.center_rank] for lt in levis],
        "godement": {
            kind: [[r.region, _exact_text(r.central)] for r in reps] for kind, reps in godement.items()
        },
        "scan": scans,
        "reject": outcomes,
    }
    n_points = sum(scan["n_points"] for scan in scans)
    counts = {
        "constant_term": len(reports),
        "from_matrix": len(built),
        "levi": len(levis),
        **{f"godement_{kind}": len(reps) for kind, reps in godement.items()},
        "scan": n_points,
        "scan_json": n_points,
        "reject": len(outcomes),
    }
    calls = len(reports) + len(built) + 2 * len(levis) + sum(map(len, godement.values())) + 2 * len(scans) + len(outcomes)
    return Pass(outputs=outputs, units=clock.units, counts=counts, work=calls, attempted=calls, done=done)


def _check_catalog(inputs: dict, outputs: dict) -> tuple[int, list[str]]:
    problems = []
    reference = {(label, node): rest for label, node, *rest in oracle.golden()["constant_term"]}
    for label, node, *rest in outputs["constant_term"]:
        if reference.get((label, node)) != rest:
            problems.append(f"constant term {label} node {node}: {rest}, reference {reference.get((label, node))}")
    if len(outputs["constant_term"]) != len(reference):
        problems.append("constant-term verdicts missing")
    for (cm, rows), (label, affine, entries) in zip(inputs["matrices"], outputs["from_matrix"]):
        if (label, affine, entries) != (cm.label, cm.is_affine, rows):
            problems.append(f"from_matrix of permuted {cm.label} gave {label}")
    levi_table = oracle.golden()["levi"]
    for (cm, mask, nodes), (levi, center) in zip(inputs["subsets"], outputs["levi"]):
        if levi != levi_table[cm.label][mask] or center != cm.size - len(nodes):
            problems.append(f"Levi type of {cm.label} {sorted(nodes)}: {levi}")
    for kind, cases in inputs["godement"].items():
        for (cm, values, _), (region, central) in zip(cases, outputs["godement"][kind]):
            want_region, want_central = oracle.region(cm.label, values)
            same = central == _exact_text(want_central) if kind == "exact" else oracle.close(central, want_central)
            if region != want_region or not same:
                problems.append(f"godement {kind} on {cm.label} {values}: {region} {central}")
    cm, nus, nu_primes, truncation, _, _ = inputs["scan"]
    for block, scan in zip(_blocks(nus, SCAN_BLOCKS), outputs["scan"]):
        problems += _check_scan(cm, block, nu_primes, truncation, scan)
    failed = sum(outcome != "rejected" for _, outcome in outputs["reject"])
    return failed + len(problems), problems


def _check_scan(cm, nus, nu_primes, truncation, scan_json) -> list[str]:
    points = scan_json["points"]
    if scan_json["n_points"] != len(points) or len(points) != len(nus) * len(nu_primes):
        return ["scan point count differs from the grid"]
    poles = 0
    for point, (nu, nu_prime) in zip(points, itertools.product(nus, nu_primes)):
        denominator, pole, value = oracle.pairing_point(cm.label, nu, nu_prime, truncation)
        poles += pole
        ok = (
            point["pole"] == pole
            and all(map(oracle.close, point["nu"], nu))
            and all(map(oracle.close, point["nu_prime"], nu_prime))
            and oracle.close(point["denominator"], denominator)
            and (value is None if pole else point["value"] is not None and oracle.close(point["value"], value))
        )
        if not ok:
            return [f"scan point at nu={nu} nu'={nu_prime} disagrees with the reference"]
    if scan_json["n_poles"] != poles:
        return [f"scan reports {scan_json['n_poles']} poles, reference {poles}"]
    return []


# --- dispatch ------------------------------------------------------------------

_BUILD = {"atlas": _build_atlas, "stream": _build_stream, "catalog": _build_catalog}
_RUN = {"atlas": _run_atlas, "stream": _run_stream, "catalog": _run_catalog}
_CHECK = {"atlas": _check_atlas, "stream": _check_stream, "catalog": _check_catalog}


def build(name: str, seed: int) -> dict:
    return _BUILD[name](seed)


def run(name: str, inputs: dict) -> Pass:
    return _RUN[name](inputs)


def check(name: str, inputs: dict, outputs) -> tuple[int, list[str]]:
    """(failed operations, problems); a problem is a wrong output on a valid input."""
    return _CHECK[name](inputs, outputs)


def output_digest(name: str, outputs) -> str:
    """md5 of the atlas text (comparable with the CLI's stdout), sha256 of
    the other workloads' outputs as canonical JSON."""
    if name == "atlas":
        return hashlib.md5(outputs.encode()).hexdigest()
    return oracle.digest(outputs)
