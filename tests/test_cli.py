import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import atlas
import loopatlas
from loopatlas import cartan, cli, criterion, maass_selberg, parabolic, roots, weyl
from loopatlas.errors import LoopAtlasError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --- weyl -------------------------------------------------------------------


def test_weyl_apply(capsys):
    obj = run_json(capsys, "weyl", "A2", "--word", "1", "--apply", "[1, 0]")
    assert obj == {
        "type": "A2",
        "word": [1],
        "matrix": [[-1, 1], [0, 1]],
        "length": 1,
        "image": [-1, 0],
    }


def test_weyl_reduces_the_word(capsys):
    obj = run_json(capsys, "weyl", "A2", "--word", "1,1,2,2")
    assert obj["word"] == []
    assert obj["length"] == 0
    obj = run_json(capsys, "weyl", "A1affine", "--word", "2,1,2")
    assert obj["length"] == 3


# --- godement ---------------------------------------------------------------


def test_godement_uniform(capsys):
    obj = run_json(capsys, "godement", "E6affine", "--uniform", "-3")
    assert obj == {"type": "E6affine", "region": "convergent", "nu_c": -36, "g": 12}


def test_godement_json_values(capsys):
    obj = run_json(capsys, "godement", "A2affine", "--nu", "[-1, -1, -1]")
    assert obj["region"] == "boundary"
    assert obj["nu_c"] == -3
    obj = run_json(capsys, "godement", "A1affine", "--nu", "[[-3, 1], [-3, -1]]")
    assert obj["region"] == "convergent"
    assert obj["nu_c"] == -6


# --- levi and associate -----------------------------------------------------


def test_levi_branch_node(capsys):
    code, out, _ = run(capsys, "levi", "E6affine", "--theta", "1,2,3,5,6,7")
    assert code == 0
    expected = {
        "type": "E6affine",
        "theta": [1, 2, 3, 5, 6, 7],
        "components": ["A2", "A2", "A2"],
        "center_rank": 1,
    }
    # the bytes, key order included: the type and theta, then levi_to_json
    assert out == json.dumps(expected, indent=2) + "\n"


def test_associate_verdict(capsys):
    obj = run_json(capsys, "associate", "E6affine", "--remove", "4", "--max-length", "4")
    assert obj["self_associate"] is False
    assert obj["trivial_constant_term"] is True
    assert obj["reason"] == "not self-associate and no other maximal subset shares its Levi type"
    assert obj["levi"] == ["A2", "A2", "A2"]
    assert obj["certificate"]["removed_node"] == 4
    assert obj["certificate"]["witness"] is None
    assert obj["certificate"]["search_bound"] == 4


def test_associate_versus(capsys):
    obj = run_json(capsys, "associate", "A1affine", "--remove", "1", "--versus", "2")
    assert obj == {
        "type": "A1affine",
        "removed_node": 1,
        "versus": 2,
        "associate_necessary": True,
        "levi": ["A1"],
        "levi_versus": ["A1"],
    }


def test_associate_versus_negative(capsys):
    obj = run_json(capsys, "associate", "E7affine", "--remove", "4", "--versus", "2")
    assert obj["associate_necessary"] is False
    assert obj["levi"] == ["A1", "A3", "A3"]
    assert obj["levi_versus"] == ["A7"]


# --- roots ------------------------------------------------------------------


def test_roots_finite(capsys):
    obj = run_json(capsys, "roots", "A2")
    assert obj == {
        "label": "A2",
        "positive_roots": [[0, 1], [1, 0], [1, 1]],
        "highest_root": [1, 1],
        "marks": [1, 1],
        "comarks": [1, 1],
        "dual_coxeter": 3,
    }


def test_roots_affine(capsys):
    obj = run_json(capsys, "roots", "A1affine", "--depth", "1")
    assert obj["label"] == "A1affine"
    assert obj["depth"] == 1
    assert obj["imaginary_multiplicity"] == 1
    assert [1, 1] in obj["imaginary"]
    assert [0, 1] in obj["real"] and [2, 1] in obj["real"]
    assert [1, 1] not in obj["real"]


# --- ms ---------------------------------------------------------------------


def test_ms_degenerate_value(capsys):
    obj = run_json(
        capsys, "ms", "A1affine", "--nu", "[-1.5, -1.5]", "--nu-prime", "[-1.5, -1.5]"
    )
    assert obj == {
        "type": "A1affine",
        "value": [0.5, 0.0],
        "pole": False,
        "denominator": -2,
    }


def test_ms_pole(capsys):
    obj = run_json(capsys, "ms", "A1affine", "--nu", "[-1, -1]", "--nu-prime", "[-1, -1]")
    assert obj["pole"] is True
    assert obj["value"] is None
    assert obj["denominator"] == 0


def test_ms_plain_sign(capsys):
    base = run_json(
        capsys, "ms", "A2affine", "--nu", "[-2, -2, -2]", "--nu-prime", "[-2, -2, -2]"
    )
    flipped = run_json(
        capsys,
        "ms",
        "A2affine",
        "--nu",
        "[-2, -2, -2]",
        "--nu-prime",
        "[-2, -2, -2]",
        "--plain-sign",
    )
    assert flipped["value"][0] == -base["value"][0]


def test_ms_kernel_truncation_denominator(capsys):
    obj = run_json(
        capsys,
        "ms",
        "A1affine",
        "--nu",
        "[-2, 0]",
        "--nu-prime",
        "[-2, 0]",
        "--kernel",
        "--denominator",
        "truncation",
        "--truncation",
        "[0.5, 0]",
        "--pairing",
        "2",
    )
    # shifted sum (-2, 2), truncation value -1, no leading minus
    assert obj["pole"] is False
    assert obj["denominator"] == -1
    assert abs(obj["value"][0] - 2 * 0.36787944117144233 / -1) <= 1e-15


_MS = ["ms", "A1affine", "--nu", "[-2, 0]", "--nu-prime", "[-2, 0]"]


@pytest.mark.parametrize(
    "argv, flags",
    [
        (_MS + ["--denominator", "truncation"], ("--denominator", "--kernel")),
        (_MS + ["--kernel", "--plain-sign"], ("--plain-sign", "--kernel")),
        (["godement", "A1affine", "--nu", "[-3, -3]", "--uniform", "-3"], ("--uniform", "--nu")),
    ],
)
def test_a_flag_the_command_would_drop_is_a_usage_error(capsys, argv, flags):
    # each of these used to exit 0 with one flag silently ignored
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse reports its own usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert all(flag in err for flag in flags)


# --- atlas ------------------------------------------------------------------


def test_atlas_json_small(capsys):
    obj = run_json(capsys, "atlas", "--max-rank", "2", "--max-length", "4")
    assert obj["max_rank"] == 2
    assert obj["search_bound"] == 4
    rows = obj["rows"]
    assert len(rows) == 11  # 2 + 3 + 3 + 3 maximal subsets
    assert {r["type"] for r in rows} == {"A1affine", "A2affine", "B2affine", "G2affine"}
    for r in rows:
        assert r["self_associate"] is False
        assert r["convergence_threshold"] == -2 * r["dual_coxeter"]
        assert r["continuation_threshold"] == -r["dual_coxeter"]
        assert r["search_bound"] == 4
    a2_rows = [r for r in rows if r["type"] == "A2affine"]
    assert all(r["levi"] == "A2" and not r["trivial_constant_term"] for r in a2_rows)
    b2_levis = sorted(r["levi"] for r in rows if r["type"] == "B2affine")
    assert b2_levis == ["A1+A1", "B2", "B2"]
    for r in rows:
        if r["type"] == "B2affine":
            assert r["trivial_constant_term"] == (r["levi"] == "A1+A1")
    g2_levis = sorted(r["levi"] for r in rows if r["type"] == "G2affine")
    assert g2_levis == ["A1+A1", "A2", "G2"]
    assert all(r["trivial_constant_term"] for r in rows if r["type"] == "G2affine")


def test_atlas_is_byte_identical(capsys):
    code1, out1, _ = run(capsys, "atlas", "--max-rank", "2", "--max-length", "3")
    code2, out2, _ = run(capsys, "atlas", "--max-rank", "2", "--max-length", "3")
    assert code1 == code2 == 0
    assert out1 == out2


# The atlas invariant: these TSV outputs have matched byte for byte since
# they were first recorded.  --max-rank 24 (under a second) is pinned too,
# the one atlas that reaches ranks 10 to 24.
ATLAS_MD5 = {
    (): "c20232bab41a0c8a696e827f91b540b5",
    ("--max-length", "12"): "248bab7ab44d096b044a563d7e05e54c",
    ("--max-rank", "9", "--max-length", "24"): "455280e24905fb6ae183be6197658d2b",
    ("--max-rank", "24"): "7c93a06540fa3776751dbcc4156e2bd2",
}


@pytest.mark.parametrize("argv", list(ATLAS_MD5))
def test_atlas_tsv_pin(capsys, argv):
    code, out, err = run(capsys, "atlas", *argv, "--format", "tsv")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == ATLAS_MD5[argv]


@pytest.mark.parametrize("max_rank,bound,argv", [(8, 16, ()), (8, 12, ("--max-length", "12")),
                                                 (9, 24, ("--max-rank", "9", "--max-length", "24"))])
def test_atlas_pin_from_the_oracles_alone(max_rank, bound, argv):
    """The pinned bytes, explained without the library: the Euclidean
    matrices, the linear-scan classifier's Levi labels, the exponent
    series' ball sizes and the constant-term rule on the Levi multisets
    (``tests/atlas.py``) give every atlas the catalog reaches."""
    assert hashlib.md5(atlas.tsv(max_rank, bound).encode()).hexdigest() == ATLAS_MD5[argv]


def test_a_cold_default_atlas_builds_no_record_through_the_checks(capsys, monkeypatch):
    """The library's own matrices take the private builder: a cold default
    atlas runs the checked constructor no time, and a hand-built record
    runs it once."""
    calls = []
    checked = cartan.CartanMatrix.__new__
    monkeypatch.setattr(cartan.CartanMatrix, "__new__", lambda cls, *args: calls.append(args) or checked(cls, *args))
    cartan._fact.cache_clear()
    assert run(capsys, "atlas")[0] == 0
    assert calls == []
    assert cartan.CartanMatrix(((2,),), False).label == "A1" and len(calls) == 1


def test_fact_store_holds_the_largest_atlas(capsys):
    """The largest atlas the size limit allows fits the one fact store: a
    warm rerun computes no fact again, and the store is not full."""
    cartan._fact.cache_clear()
    argv = ("atlas", "--max-rank", "24", "--format", "tsv")
    assert run(capsys, *argv)[0] == 0
    cold = cartan._fact.cache_info()
    assert run(capsys, *argv)[0] == 0
    warm = cartan._fact.cache_info()
    assert warm.misses == cold.misses
    assert warm.currsize < warm.maxsize


COLD_ATLAS_FACTS = 1_097  # measured; the comment on cartan's fact store quotes it


def test_a_cold_default_atlas_computes_no_more_facts_than_measured(capsys):
    """A guard on the cold path's work that reads no clock: a cold default
    atlas misses the fact store at most ``COLD_ATLAS_FACTS`` times.  Each
    Levi's types are read off its ambient's rows, with no fact of their
    own for the Levi's whole submatrix, and rows built from a type label
    take the type recorded where they were built, not the classifier."""
    cartan._fact.cache_clear()
    assert run(capsys, "atlas")[0] == 0
    assert cartan._fact.cache_info().misses <= COLD_ATLAS_FACTS


def test_atlas_tsv(capsys):
    code, out, _ = run(
        capsys, "atlas", "--max-rank", "2", "--max-length", "2", "--format", "tsv"
    )
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "\t".join(cli.ATLAS_COLUMNS)
    assert len(lines) == 12
    first = dict(zip(cli.ATLAS_COLUMNS, lines[1].split("\t")))
    assert first["type"] == "A1affine"
    assert first["self_associate"] == "false"


def test_atlas_out_file(tmp_path, capsys):
    target = tmp_path / "atlas.tsv"
    code, out, _ = run(
        capsys,
        "atlas",
        "--max-rank",
        "2",
        "--max-length",
        "2",
        "--format",
        "tsv",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    _, direct, _ = run(capsys, "atlas", "--max-rank", "2", "--max-length", "2", "--format", "tsv")
    assert target.read_text() == direct


# --- matrix files -----------------------------------------------------------


def test_matrix_file_by_fields(tmp_path, capsys):
    path = tmp_path / "type.json"
    path.write_text(json.dumps({"series": "A", "rank": 2, "affine": False}))
    obj = run_json(capsys, "weyl", "--matrix-file", str(path), "--word", "1,2,1")
    assert obj["type"] == "A2"
    assert obj["length"] == 3


def test_matrix_file_raw_entries(tmp_path, capsys):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"matrix": [[2, -1], [-1, 2]]}))
    obj = run_json(capsys, "roots", "--matrix-file", str(path))
    assert obj["label"] == "A2"


@pytest.mark.parametrize("text", ["5", '{"matrix": 5}', '{"matrix": [5]}'])
def test_matrix_file_of_scalars_is_a_domain_error(tmp_path, capsys, text):
    # a raw TypeError used to make these usage errors (exit 2)
    path = tmp_path / "scalar.json"
    path.write_text(text)
    code, out, err = run(capsys, "roots", "--matrix-file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# --- failure modes ----------------------------------------------------------


def test_unknown_type_is_a_domain_error(capsys):
    code, out, err = run(capsys, "roots", "Z9")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_bad_json_is_a_usage_error(capsys):
    code, _, err = run(capsys, "godement", "A1affine", "--nu", "not json")
    assert code == 2
    assert err.startswith("usage error:")


@pytest.mark.parametrize(
    "flags", [("--uniform", "nan"), ("--nu", "[NaN, NaN, NaN]"), ("--nu", "[-Infinity, -1, -1]")]
)
def test_non_finite_parameter_is_a_domain_error(flags):
    # the all-NaN case used to print "nu_c": NaN, which is not JSON
    _assert_domain_error_in_subprocess("godement", "A2affine", *flags)


def _run_python(*argv, stdout=subprocess.PIPE):
    src = str(Path(loopatlas.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run(
        [sys.executable, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )


def _run_module(*argv, stdout=subprocess.PIPE):
    return _run_python("-m", "loopatlas", *argv, stdout=stdout)


def test_import_and_pointwise_commands_leave_numpy_unloaded():
    # numpy used to be most of every command's start-up; only the walks and
    # float scans need it, and the last line shows this check can fail
    code = "\n".join(
        [
            "import contextlib, io, sys",
            "from fractions import Fraction",
            "import loopatlas",
            "import loopatlas.maass_selberg as ms",
            "from loopatlas import cartan, cli, criterion",
            "assert 'numpy' not in sys.modules, 'import loopatlas'",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['ms', 'A1affine', '--nu', '[-1.5, -1.5]', '--nu-prime', '[-1.5, -1.5]']) == 0",
            "    assert cli.main(['godement', 'E6affine', '--uniform', '-3']) == 0",
            "assert 'numpy' not in sys.modules, 'ms and godement'",
            "cm, f = cartan.parse_type('A1affine'), criterion.functional((-1.5, -2.5))",
            "ms.inner_product(ms.TruncatedPairing(cm, 1.0, f, f, (0.25, 0.5)))",
            "exact = [criterion.functional((-3, Fraction(-5, 2))), criterion.functional((-1, -1))]",
            "assert ms.region_scan(cm, exact, exact, (0.25, 0.5)).n_poles == 1",
            "assert 'numpy' not in sys.modules, 'inner_product and an exact scan'",
            "ms.region_scan(cm, [f], [f], (0.25, 0.5))",
            "assert 'numpy' in sys.modules, 'a float scan'",
        ]
    )
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_atlas_and_associate_leave_numpy_unloaded():
    # the certificates and ball_sizes count the ball in closed form; nothing walks
    code = "\n".join(
        [
            "import contextlib, io, sys",
            "from loopatlas import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['atlas', '--max-rank', '3', '--max-length', '8']) == 0",
            "assert 'numpy' not in sys.modules, 'atlas'",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['associate', 'E6affine', '--remove', '4', '--max-length', '8']) == 0",
            "assert 'numpy' not in sys.modules, 'associate'",
            "from loopatlas import cartan, weyl",
            "assert weyl.ball_sizes(cartan.parse_type('E8affine'), 24)[24] == 4924393",
            "assert 'numpy' not in sys.modules, 'ball_sizes'",
        ]
    )
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_import_loads_neither_dataclasses_nor_inspect():
    # every record is a NamedTuple: dataclasses pulls in inspect, and every
    # command would pay for both at start-up
    code = "\n".join(
        [
            "import sys",
            "import loopatlas.cli",
            "assert not {'dataclasses', 'inspect'} & set(sys.modules), sorted({'dataclasses', 'inspect'} & set(sys.modules))",
        ]
    )
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr


def _assert_domain_error_in_subprocess(*argv):
    done = _run_module(*argv)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


def test_output_is_strict_json():
    with pytest.raises(ValueError):
        cli._dump({"nu_c": float("nan")})


def test_missing_parameter_source(capsys):
    code, _, err = run(capsys, "godement", "A1affine")
    assert code == 2
    assert "JSON or via --uniform" in err


def test_missing_type(capsys):
    code, _, err = run(capsys, "levi", "--theta", "1")
    assert code == 2
    assert "type label or --matrix-file" in err


def test_missing_matrix_file(capsys):
    code, _, err = run(capsys, "roots", "--matrix-file", "/nonexistent/file.json")
    assert code == 1
    assert err.startswith("error:")


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["weyl", "A2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["atlas", "--format", "xml"])
    assert exc.value.code == 2


def test_out_of_range_node_is_a_domain_error(capsys):
    code, _, err = run(capsys, "associate", "A2affine", "--remove", "9")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "flags,node",
    [
        (("--remove", "9"), 9),
        (("--remove", "0"), 0),
        (("--remove", "1", "--versus", "7"), 7),
        (("--remove", "1", "--versus", "0"), 0),
    ],
)
def test_associate_names_the_out_of_range_node(capsys, flags, node):
    code, out, err = run(capsys, "associate", "A2affine", *flags)
    assert (code, out) == (1, "")
    assert err == f"error: removed node {node} out of range 1..3\n"


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_atlas_below_rank_one_is_a_domain_error(capsys, rank):
    code, out, err = run(capsys, "atlas", "--max-rank", rank)
    assert (code, out) == (1, "")
    assert err == f"error: types of at most 25 nodes have ranks 1..24, got {rank}\n"


def test_atlas_reaches_the_size_limit(capsys):
    """Affine ranks above 9 are tabulated, up to 24; 25 would have 26 nodes."""
    code, out, err = run(capsys, "atlas", "--max-rank", "10", "--max-length", "2", "--format", "tsv")
    assert (code, err) == (0, "")
    types = [line.split("\t")[0] for line in out.splitlines()[1:]]
    assert types.count("A10affine") == 11 and types.count("D10affine") == 11
    code, out, err = run(capsys, "atlas", "--max-rank", "25")
    assert (code, out, err) == (1, "", "error: types of at most 25 nodes have ranks 1..24, got 25\n")


def test_godement_overflow_is_a_domain_error():
    # the central value's float sum used to raise a raw OverflowError (exit 2)
    _assert_domain_error_in_subprocess("godement", "A2affine", "--nu", f"[{10**400}, 1.5, 0]")
    # and to overflow to inf, classified and then refused by the JSON encoder (exit 2)
    _assert_domain_error_in_subprocess("godement", "A2affine", "--nu", "[1e308, 1e308, 1e308]")


def test_ms_overflow_is_a_domain_error():
    # cmath.exp used to end this run in an OverflowError traceback
    _assert_domain_error_in_subprocess(
        "ms", "A1affine", "--nu", "[400,400]", "--nu-prime", "[400,400]", "--truncation", "[1,1]"
    )
    # an infinite phase made cmath.exp raise a raw ValueError (exit 2)
    _assert_domain_error_in_subprocess(
        "ms", "A2affine", "--nu", "[[0,6e307],0,0]", "--nu-prime", "[0,0,0]", "--truncation", "[10,0,0]"
    )


MS_FLAGS = ("ms", "A1affine", "--nu", "[-2, -2]", "--nu-prime", "[-2, -2]")


@pytest.mark.parametrize(
    "truncation", ["[true, 0]", '["1", 0]', "[null, 0]", "3", '"10"', "[[true, 0], 0]", '[["1", 0], 0]']
)
def test_truncation_is_read_as_a_value_array(truncation):
    # float(x) read true and "1" as 1.0 and exited 0, bare and as a pair's part
    done = _run_module(*MS_FLAGS, "--truncation", truncation)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage error:")


_BIG = str(10**400)  # written out in JSON: an exact int, too large for a float


@pytest.mark.parametrize(
    "argv,code",
    [
        pytest.param((*MS_FLAGS, "--truncation", f"[{_BIG}, 0]"), 1, id="ms-truncation-bare"),
        pytest.param((*MS_FLAGS, "--pairing", _BIG), 1, id="ms-pairing-bare"),
        pytest.param((*MS_FLAGS, "--truncation", f"[[{_BIG}, 0], 0]"), 1, id="ms-truncation-pair-re"),
        pytest.param((*MS_FLAGS, "--truncation", f"[[0, {_BIG}], 0]"), 1, id="ms-truncation-pair-im"),
        pytest.param((*MS_FLAGS, "--pairing", f"[{_BIG}, 0]"), 1, id="ms-pairing-pair-re"),
        pytest.param(
            ("ms", "A1affine", "--nu", f"[[{_BIG}, 0], -2]", "--nu-prime", "[-2, -2]"), 1, id="ms-nu-pair-re"
        ),
        pytest.param(("godement", "A2affine", "--nu", f"[[{_BIG}, 0], 0, 0]"), 1, id="godement-nu-pair-re"),
        # exact arithmetic throughout, so there is an answer
        pytest.param(("godement", "A2affine", "--nu", f"[{_BIG}, 0, 0]"), 0, id="godement-nu-bare"),
    ],
)
def test_a_number_too_large_for_a_float_exits_1_wherever_it_sits(argv, code):
    """A pair's part went through float() in the decoder and escaped as a
    raw OverflowError, a usage error (exit 2); bare, the same number
    reached the kernel and exited 1."""
    done = _run_module(*argv)
    assert (done.returncode, "Traceback" in done.stderr) == (code, False), done.stderr
    if code:
        assert done.stdout == ""
        assert done.stderr.startswith("error:")


@pytest.mark.parametrize("depth", [str(10**8), str(10**18)])
def test_a_root_slice_past_the_limit_exits_1(depth):
    # --depth 10**8 on E8affine used to run until it was killed
    done = _run_module("roots", "E8affine", "--depth", depth)
    assert (done.returncode, "Traceback" in done.stderr, done.stdout) == (1, False, ""), done.stderr
    assert done.stderr.startswith(f"error: root slice of depth {depth} would hold")


@pytest.mark.parametrize("argv", [("associate", "A1affine", "--remove", "1"), ("atlas", "--max-rank", "1")])
def test_a_length_series_past_the_limit_exits_1(argv):
    # --max-length 10**18 used to end in a MemoryError traceback
    done = _run_module(*argv, "--max-length", str(10**18))
    assert (done.returncode, "Traceback" in done.stderr, done.stdout) == (1, False, ""), done.stderr
    assert done.stderr.startswith(f"error: length series up to length {10**18} would hold")


def test_truncation_takes_complex_pairs():
    # [re, im] pairs are complex here as in every other value array
    pair = json.loads(_run_module(*MS_FLAGS, "--truncation", "[[0.5, 0.25], 0]").stdout)
    plain = json.loads(_run_module(*MS_FLAGS, "--truncation", "[0.5, 0]").stdout)
    assert pair["value"] != plain["value"]
    assert json.loads(_run_module(*MS_FLAGS, "--truncation", "[[0.5, 0], 0]").stdout) == plain


def test_closed_stdout_exits_1_without_a_traceback():
    # a reader that leaves early (``loopatlas atlas | head``) used to end
    # the run in a BrokenPipeError traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _run_module("atlas", "--max-rank", "2", "--max-length", "2", stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""


# --- fuzzing ----------------------------------------------------------------

FUZZ_TYPES = ["A2", "B3", "G2", "A1affine", "A2affine", "C2affine", "G2affine", "Z9", "A0", "E9affine"]

_numbers = st.one_of(
    st.integers(-6, 6),
    st.floats(-500, 500),
    st.sampled_from([math.nan, math.inf, -math.inf, 1.5, 1e308, -(10**400), True, None]),
    st.floats(),
)
_values = st.one_of(
    st.lists(st.one_of(_numbers, st.lists(_numbers, min_size=2, max_size=2)), max_size=4),
    _numbers,
    st.text(max_size=3),
)


def _json(strategy):
    return strategy.map(json.dumps)


def _nodes(lo, hi, max_size):
    return st.one_of(
        st.lists(st.integers(lo, hi), max_size=max_size).map(lambda xs: ",".join(map(str, xs))),
        st.text(max_size=4),
    )


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["weyl", "levi", "godement", "ms", "roots"]))
    argv = [command, draw(st.sampled_from(FUZZ_TYPES))]
    if command == "weyl":
        argv += ["--word", draw(_nodes(-1, 5, 10))]
        if draw(st.booleans()):
            argv += ["--apply", draw(_json(_values))]
    elif command == "levi":
        argv += ["--theta", draw(_nodes(-1, 5, 5))]
    elif command == "godement":
        if draw(st.booleans()):
            argv += ["--nu", draw(_json(_values))]
        else:
            argv += ["--uniform", draw(st.sampled_from(["-7", "0.5", "nan", "-inf", "1e400", "x"]))]
    elif command == "ms":
        argv += ["--nu", draw(_json(_values)), "--nu-prime", draw(_json(_values))]
        if draw(st.booleans()):
            argv += ["--truncation", draw(_json(_values))]
        if draw(st.booleans()):
            argv += ["--pairing", draw(_json(_numbers))]
        if draw(st.booleans()):
            argv += ["--kernel", "--denominator", draw(st.sampled_from(["central", "truncation"]))]
        if draw(st.booleans()):
            argv += ["--plain-sign"]
        if draw(st.booleans()):
            argv += ["--tolerance", draw(st.sampled_from(["1e-9", "0", "-1", "nan", "inf"]))]
    else:
        argv += ["--depth", str(draw(st.integers(-2, 2)))]
    return argv


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
# each of these once ended in a traceback
@example(["ms", "A1affine", "--nu", "[400,400]", "--nu-prime", "[400,400]", "--truncation", "[1,1]"])
@example(["ms", "A1affine", "--nu", f"[[{10**400},0],1]", "--nu-prime", "[1,1]"])
@example(["ms", "A1affine", "--nu", "[1,1]", "--nu-prime", "[1,1]", "--truncation", f"[{10**400},0]"])
@example(["weyl", "A2", "--word", "1", "--apply", "[Infinity, 0]"])
@example(["ms", "A1affine", "--nu", "[-1,-1]", "--nu-prime", "[-1,-1]", "--tolerance", "nan"])
def test_cli_fuzz_exits_cleanly(capsys, argv):
    """Only SystemExit may escape the CLI, and every exit code is 0, 1 or 2."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2)


# The same value pool, fed to the Python API: parameters become
# LinearFunctional inputs (built inside the call, so a value the
# constructor rejects is one more rejection), pairs become complex numbers.

API_TYPES = ["A2", "A1affine", "A2affine", "C2affine", "G2affine"]

_api_numbers = st.one_of(
    _numbers,
    st.builds(complex, st.floats(-500, 500), st.floats()),
    # kinds outside the number rule, then non-finite complex values and an exact Fraction
    st.sampled_from([Decimal("1"), Decimal("-7.5"), Decimal("NaN"), numpy.float32(1), numpy.float32(math.nan)]),
    st.sampled_from([complex(math.inf, 0), complex(-3, math.nan), Fraction(-7, 2)]),
)
_api_scalars = st.one_of(_api_numbers, st.integers(-2, 3), st.text(max_size=3))
# NaN and infinities, as floats and as either part of a complex number
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
_non_finite_values = st.one_of(
    _non_finite,
    st.builds(complex, _non_finite, st.floats(-5, 5)),
    st.builds(complex, st.floats(-5, 5), _non_finite),
)
# the same in JSON form, a complex number as an [re, im] pair
_non_finite_json = st.one_of(
    _non_finite,
    st.tuples(_non_finite, st.floats(-5, 5)).map(list),
    st.tuples(st.floats(-5, 5), _non_finite).map(list),
)


def _f(values):
    return criterion.functional(values)


_A2_LISTS = [[2, -1], [-1, 2]]
_A2 = ((2, -1), (-1, 2))


_API = {
    "central_value": lambda cm, a, b, t, x: criterion.central_value(cm, _f(a)),
    "godement_cuspidal": lambda cm, a, b, t, x: criterion.godement_cuspidal(cm, _f(a)),
    "implication_check": lambda cm, a, b, t, x: criterion.implication_check(cm, _f(a)),
    "extend_from_central": lambda cm, a, b, t, x: criterion.extend_from_central(cm, x),
    "region_scan": lambda cm, a, b, t, x: maass_selberg.region_scan(cm, [_f(a)], [_f(b)], t, x),
    "pairing_kernel": lambda cm, a, b, t, x: maass_selberg.pairing_kernel(cm, x, _f(a), _f(b), t),
    "inner_product": lambda cm, a, b, t, x: maass_selberg.inner_product(
        maass_selberg.TruncatedPairing(cm, x, _f(a), _f(b), t)
    ),
    "region_scan_lists": lambda cm, a, b, t, x: maass_selberg.region_scan(cm, a, b, t),
    "inner_product_request": lambda cm, a, b, t, x: maass_selberg.inner_product(x),
    "inner_product_flag": lambda cm, a, b, t, x: maass_selberg.inner_product(
        maass_selberg.TruncatedPairing(cm, 1.0, _f(a), _f(b), t), leading_minus=x
    ),
    "affine_roots": lambda cm, a, b, t, x: roots.affine_roots(cm, x),
    "from_word": lambda cm, a, b, t, x: weyl.from_word(cm, a),
    "reduce_word": lambda cm, a, b, t, x: weyl.reduce_word(cm, a),
    "inverse": lambda cm, a, b, t, x: weyl.inverse(weyl.WeylElement(cm, a, ())),
    "compose": lambda cm, a, b, t, x: weyl.compose(weyl.WeylElement(cm, a, ()), weyl.WeylElement(cm, b, ())),
    "inversions": lambda cm, a, b, t, x: weyl.inversions(weyl.WeylElement(cm, a, ())),
    "compose_non_element": lambda cm, a, b, t, x: weyl.compose(x, x),
    "inverse_non_element": lambda cm, a, b, t, x: weyl.inverse(x),
    "inversions_non_element": lambda cm, a, b, t, x: weyl.inversions(x),
    "act_non_element": lambda cm, a, b, t, x: weyl.act(x, a),
    "act": lambda cm, a, b, t, x: weyl.act(weyl.simple(cm, 1), a),
    "act_element": lambda cm, a, b, t, x: weyl.act(weyl.WeylElement(cm, a, b), t),
    "element_to_json": lambda cm, a, b, t, x: weyl.element_to_json(weyl.WeylElement(cm, a, b)),
    "element_to_json_non_element": lambda cm, a, b, t, x: weyl.element_to_json(x),
    "parabolic_subset": lambda cm, a, b, t, x: parabolic.parabolic_subset(cm, a),
    "levi_type": lambda cm, a, b, t, x: parabolic.levi_type(parabolic.parabolic_subset(cm, a)),
    "longest_element": lambda cm, a, b, t, x: weyl.longest_element(cm, a),
    "maximal_certificates": lambda cm, a, b, t, x: parabolic.maximal_certificates(cm, x),
    "finite_self_associate": lambda cm, a, b, t, x: parabolic.finite_self_associate(cm, x),
    "enumerate_elements": lambda cm, a, b, t, x: list(weyl.enumerate_elements(cm, x)),
    "ball_sizes": lambda cm, a, b, t, x: weyl.ball_sizes(cm, a),
    "functional": lambda cm, a, b, t, x: criterion.functional(a, x),
    "functional_from_json": lambda cm, a, b, t, x: criterion.functional_from_json(a),
    # a decoded parameter through the gates that read its values
    "godement_cuspidal_from_json": lambda cm, a, b, t, x: criterion.godement_cuspidal(
        cm, criterion.functional_from_json(a)
    ),
    "region_scan_from_json": lambda cm, a, b, t, x: maass_selberg.region_scan(
        cm, [criterion.functional_from_json(a)], [criterion.functional_from_json(b)], t
    ),
    "classify": lambda cm, a, b, t, x: cartan.classify(a),
    "symmetrizer": lambda cm, a, b, t, x: cartan.symmetrizer(a),
    "all_types_flag": lambda cm, a, b, t, x: cartan.all_types(3, affine=x),
    "dominant_integral": lambda cm, a, b, t, x: criterion.dominant_integral(cm, a),
    "pairing": lambda cm, a, b, t, x: roots.pairing(cm, a, 1),
    "reflect": lambda cm, a, b, t, x: roots.reflect(cm, a, 1),
    "maximal_certificates_non_ambient": lambda cm, a, b, t, x: parabolic.maximal_certificates(x),
    "is_self_associate_non_subset": lambda cm, a, b, t, x: parabolic.is_self_associate(x),
    "finite_self_associate_non_ambient": lambda cm, a, b, t, x: parabolic.finite_self_associate(x, 1),
    "constant_term_report_non_certificate": lambda cm, a, b, t, x: parabolic.constant_term_report(x),
    "removed_node_image_non_ambient": lambda cm, a, b, t, x: weyl.removed_node_image(x, 1),
    "longest_element_non_ambient": lambda cm, a, b, t, x: weyl.longest_element(x, ()),
    "levi_type_non_subset": lambda cm, a, b, t, x: parabolic.levi_type(x),
    "parabolic_subset_non_ambient": lambda cm, a, b, t, x: parabolic.parabolic_subset(x, a),
    "maximal_parabolics_non_ambient": lambda cm, a, b, t, x: parabolic.maximal_parabolics(x),
    "component_types_non_ambient": lambda cm, a, b, t, x: cartan.component_types(x, a),
    "positive_roots_non_ambient": lambda cm, a, b, t, x: roots.positive_roots(x),
    "dual_coxeter_non_ambient": lambda cm, a, b, t, x: roots.dual_coxeter(x),
    "central_coroot_non_ambient": lambda cm, a, b, t, x: roots.central_coroot(x),
    "from_word_non_ambient": lambda cm, a, b, t, x: weyl.from_word(x, a),
    "ball_sizes_non_ambient": lambda cm, a, b, t, x: weyl.ball_sizes(x, 1),
    "central_value_non_ambient": lambda cm, a, b, t, x: criterion.central_value(x, _f(a)),
    "godement_cuspidal_non_ambient": lambda cm, a, b, t, x: criterion.godement_cuspidal(x, _f(a)),
    "pairing_kernel_non_ambient": lambda cm, a, b, t, x: maass_selberg.pairing_kernel(x, 1.0, _f(a), _f(b), t),
    "region_scan_non_ambient": lambda cm, a, b, t, x: maass_selberg.region_scan(x, [_f(a)], [_f(b)], t),
    # the same gate, with a drawn scalar, vector or list of rows as the ambient
    "components_non_ambient": lambda cm, a, b, t, x: cartan.components(a),
    "irreducible_non_ambient": lambda cm, a, b, t, x: cartan.irreducible(a),
    "affinize_non_ambient": lambda cm, a, b, t, x: cartan.affinize(a),
    "to_json_non_ambient": lambda cm, a, b, t, x: cartan.to_json(a),
    "highest_root_non_ambient": lambda cm, a, b, t, x: roots.highest_root(a),
    "marks_non_ambient": lambda cm, a, b, t, x: roots.marks(a),
    "comarks_non_ambient": lambda cm, a, b, t, x: roots.comarks(a),
    "delta_non_ambient": lambda cm, a, b, t, x: roots.delta(a),
    "root_system_non_ambient": lambda cm, a, b, t, x: roots.root_system(a),
    "affine_roots_non_ambient": lambda cm, a, b, t, x: roots.affine_roots(a, 1),
    "pairing_non_ambient": lambda cm, a, b, t, x: roots.pairing(a, b, 1),
    "roots_in_span_non_ambient": lambda cm, a, b, t, x: roots.roots_in_span(a, (1,)),
    "reduce_word_non_ambient": lambda cm, a, b, t, x: weyl.reduce_word(a, b),
    "enumerate_elements_non_ambient": lambda cm, a, b, t, x: weyl.enumerate_elements(a, 1),
    "weyl_vector_non_ambient": lambda cm, a, b, t, x: criterion.weyl_vector(a),
    "dominant_integral_non_ambient": lambda cm, a, b, t, x: criterion.dominant_integral(a, b),
    "associate_necessary_non_ambient": lambda cm, a, b, t, x: parabolic.associate_necessary(a, a),
    "maximal_levi_types_non_ambient": lambda cm, a, b, t, x: parabolic.maximal_levi_types(a),
    "dual_coxeter_rows": lambda cm, a, b, t, x: roots.dual_coxeter(a),
    "central_coroot_rows": lambda cm, a, b, t, x: roots.central_coroot(a),
    "parse_type": lambda cm, a, b, t, x: cartan.parse_type(a),
    "finite_cartan": lambda cm, a, b, t, x: cartan.finite_cartan(a, x),
    "height": lambda cm, a, b, t, x: roots.height(a),
    "is_positive": lambda cm, a, b, t, x: roots.is_positive(a),
    "certificate_to_json_non_certificate": lambda cm, a, b, t, x: parabolic.certificate_to_json(x),
    "levi_to_json_non_levi": lambda cm, a, b, t, x: parabolic.levi_to_json(x),
    "functional_to_json_non_functional": lambda cm, a, b, t, x: criterion.functional_to_json(x),
    "region_to_json_non_report": lambda cm, a, b, t, x: criterion.region_to_json(x),
    "root_system_to_json_non_data": lambda cm, a, b, t, x: roots.root_system_to_json(x),
    "affine_slice_to_json_non_slice": lambda cm, a, b, t, x: roots.affine_slice_to_json(x),
    "value_to_json_non_value": lambda cm, a, b, t, x: maass_selberg.value_to_json(x),
    "scan_to_json_non_report": lambda cm, a, b, t, x: maass_selberg.scan_to_json(x),
    # an element iterates as (ambient, word, matrix), so it must still be refused as a sequence
    "from_word_element": lambda cm, a, b, t, x: weyl.from_word(cm, weyl.simple(cm, 1)),
    "reduce_word_element": lambda cm, a, b, t, x: weyl.reduce_word(cm, weyl.simple(cm, 1)),
    "act_element_as_vector": lambda cm, a, b, t, x: weyl.act(weyl.simple(cm, 1), weyl.simple(cm, 1)),
    "functional_element": lambda cm, a, b, t, x: criterion.functional(weyl.simple(cm, 1)),
    "from_matrix_element": lambda cm, a, b, t, x: cartan.from_matrix(weyl.simple(cm, 1)),
    "parabolic_subset_element": lambda cm, a, b, t, x: parabolic.parabolic_subset(cm, weyl.simple(cm, 1)),
    # the record checks itself where it is made; the readers trust it
    "parabolic_subset_record": lambda cm, a, b, t, x: parabolic.constant_term_is_trivial(parabolic.ParabolicSubset(cm, a)),
    "parabolic_subset_record_repeated_node": lambda cm, a, b, t, x: parabolic.ParabolicSubset(cm, (1, 1)),
    "parabolic_subset_record_text_nodes": lambda cm, a, b, t, x: parabolic.ParabolicSubset(cm, ("1", "2")),
    "parabolic_subset_record_node_out_of_range": lambda cm, a, b, t, x: parabolic.ParabolicSubset(cm, (1, 9)),
    "parabolic_subset_record_all_nodes": lambda cm, a, b, t, x: parabolic.ParabolicSubset(cm, cm.nodes),
    "parabolic_subset_record_finite_ambient": lambda cm, a, b, t, x: parabolic.ParabolicSubset(
        cartan.parse_type("A2"), (1,)
    ),
    # so does a Cartan matrix: rows read as ``from_matrix`` reads them ...
    "cartan_matrix_record_lists": lambda cm, a, b, t, x: weyl.ball_sizes(cartan.CartanMatrix(_A2_LISTS, False), 3),
    "cartan_matrix_record_numpy": lambda cm, a, b, t, x: roots.positive_roots(
        cartan.CartanMatrix(numpy.array(_A2_LISTS), False)
    ),
    # ... and refused, with its flag and label, where it is made
    "cartan_matrix_record_ragged": lambda cm, a, b, t, x: cartan.CartanMatrix(((2, -1), (-1,)), False),
    "cartan_matrix_record_empty": lambda cm, a, b, t, x: cartan.CartanMatrix((), False),
    "cartan_matrix_record_other_label": lambda cm, a, b, t, x: cartan.CartanMatrix(_A2, False, "E8"),
    "cartan_matrix_record_flagged_affine": lambda cm, a, b, t, x: cartan.CartanMatrix(_A2, True),
    "cartan_matrix_record_positive_entries": lambda cm, a, b, t, x: cartan.CartanMatrix(((2, 1), (1, 2)), False),
    "cartan_matrix_record_one_sided_zero": lambda cm, a, b, t, x: cartan.CartanMatrix(((2, 0), (-1, 2)), False),
    "cartan_matrix_record_int_flag": lambda cm, a, b, t, x: cartan.CartanMatrix(_A2, 1),
    "cartan_matrix_record_labelled_flagged_affine": lambda cm, a, b, t, x: cartan.CartanMatrix(_A2, True, "A2"),
    "cartan_matrix_record_label_foo": lambda cm, a, b, t, x: cartan.CartanMatrix(_A2, False, "foo"),
    "cartan_matrix_record_label_z2": lambda cm, a, b, t, x: cartan.CartanMatrix(_A2, False, "Z2"),
    # and a spectral parameter reads its values once, as a tuple
    "linear_functional_record_list": lambda cm, a, b, t, x: hash(criterion.LinearFunctional([-3, -3])),
    "linear_functional_record_generator": lambda cm, a, b, t, x: criterion.godement_cuspidal(
        cm, criterion.LinearFunctional(-3 for _ in cm.nodes)
    ),
    "linear_functional_record_scalar": lambda cm, a, b, t, x: criterion.LinearFunctional(5),
}
# these must be refused, whatever is drawn
_REFUSED = {
    "parabolic_subset_record_repeated_node", "parabolic_subset_record_text_nodes",
    "parabolic_subset_record_node_out_of_range", "parabolic_subset_record_all_nodes",
    "parabolic_subset_record_finite_ambient",
    "cartan_matrix_record_ragged", "cartan_matrix_record_empty", "cartan_matrix_record_other_label",
    "cartan_matrix_record_flagged_affine", "cartan_matrix_record_positive_entries",
    "cartan_matrix_record_one_sided_zero", "cartan_matrix_record_int_flag",
    "cartan_matrix_record_labelled_flagged_affine", "cartan_matrix_record_label_foo", "cartan_matrix_record_label_z2",
    "linear_functional_record_scalar",
}
# these take their ambient from a drawn scalar, vector or list of rows
_ROWS_AS_AMBIENT = {
    "components_non_ambient", "irreducible_non_ambient", "affinize_non_ambient", "to_json_non_ambient",
    "highest_root_non_ambient", "marks_non_ambient", "comarks_non_ambient",
    "delta_non_ambient", "root_system_non_ambient", "affine_roots_non_ambient",
    "pairing_non_ambient", "roots_in_span_non_ambient", "reduce_word_non_ambient",
    "enumerate_elements_non_ambient", "weyl_vector_non_ambient", "dominant_integral_non_ambient",
    "associate_necessary_non_ambient", "maximal_levi_types_non_ambient", "dual_coxeter_rows", "central_coroot_rows",
}
# these read their vector arguments as node lists, words, vectors, rows,
# bounds or value arrays, which may also be drawn as scalars
_SEQUENCE_CALLS = {
    "from_word", "reduce_word", "inverse", "compose", "inversions", "act", "act_element", "element_to_json",
    "parabolic_subset", "parabolic_subset_record", "levi_type", "longest_element",
    "ball_sizes", "functional", "functional_from_json", "godement_cuspidal_from_json", "region_scan_from_json",
    "region_scan", "pairing_kernel", "inner_product", "region_scan_lists",
    "classify", "symmetrizer", "dominant_integral", "pairing", "reflect", "parse_type", "finite_cartan", "height",
    "is_positive",
} | _ROWS_AS_AMBIENT
# these read JSON objects too
_OBJECT_CALLS = {"functional_from_json", "godement_cuspidal_from_json", "region_scan_from_json"}
# and these read matrix rows, drawn as lists of vectors
_MATRIX_CALLS = {
    "classify", "symmetrizer", "act_element", "element_to_json", "finite_cartan",
} | _ROWS_AS_AMBIENT


@st.composite
def _api_call(draw):
    name = draw(st.sampled_from(sorted(_API)))
    cm = cartan.parse_type(draw(st.sampled_from(API_TYPES)))
    vectors = st.one_of(
        st.lists(st.one_of(st.integers(-6, 6), st.floats(-5, 5)), min_size=cm.size, max_size=cm.size),
        st.lists(_api_numbers, min_size=cm.size, max_size=cm.size),
        st.lists(_api_numbers, max_size=4),
        st.lists(st.one_of(_non_finite_values, st.floats(-5, 5)), min_size=cm.size, max_size=cm.size),
    )
    if name in _SEQUENCE_CALLS:
        vectors = st.one_of(vectors, _api_scalars)
    if name in _MATRIX_CALLS:
        vectors = st.one_of(vectors, st.lists(vectors, max_size=4))
    if name in _OBJECT_CALLS:
        json_values = st.lists(st.one_of(_non_finite_json, st.floats(-5, 5)), min_size=cm.size, max_size=cm.size)
        vectors = st.one_of(vectors, json_values, st.fixed_dictionaries({"values": json_values}))
        keys = st.sampled_from(["values", "d_value", "matrix"])
        vectors = st.one_of(vectors, st.dictionaries(keys, st.one_of(vectors, _api_scalars), max_size=3))
    return name, cm, draw(vectors), draw(vectors), draw(vectors), draw(_api_scalars)


@settings(max_examples=400, deadline=None)
@given(_api_call())
# each of these once escaped as a raw OverflowError, AttributeError, ValueError, TypeError,
# IndexError or ZeroDivisionError, or was answered
@example(("central_value", cartan.parse_type("A2affine"), [10**400, 1.0, 0], [], [], 0))
@example(("godement_cuspidal", cartan.parse_type("A2affine"), [10**400, 1.0, 0], [], [], 0))
@example(("implication_check", cartan.parse_type("A2affine"), [-(10**400), -3.0, -3], [], [], 0))
@example(("extend_from_central", cartan.parse_type("A2affine"), [], [], [], "x"))
@example(("region_scan", cartan.parse_type("A2affine"), [0, 0, 0], [0, 0, 1], [0, 0, 6e307j], 0))
@example(("affine_roots", cartan.parse_type("A2affine"), [], [], [], 2.5))
@example(("affine_roots", cartan.parse_type("A2affine"), [], [], [], "2"))
@example(("from_word", cartan.parse_type("A2affine"), None, [], [], 0))
@example(("longest_element", cartan.parse_type("A2affine"), 1.5, [], [], 0))
@example(("ball_sizes", cartan.parse_type("A2affine"), [3], [], [], 0))
@example(("functional", cartan.parse_type("A2affine"), 3, [], [], 0))
@example(("functional_from_json", cartan.parse_type("A2affine"), {"d_value": 1}, [], [], 0))
@example(("functional_from_json", cartan.parse_type("A2affine"), 5, [], [], 0))
@example(("region_scan_lists", cartan.parse_type("A1affine"), 5, [], [0, 0], 0))
@example(("region_scan", cartan.parse_type("A1affine"), [0, 0], [0, 0], 0, 1.0))
@example(("pairing_kernel", cartan.parse_type("A1affine"), [0, 0], [0, 0], 0, 1.0))
@example(("inner_product", cartan.parse_type("A1affine"), [0, 0], [0, 0], 0, 1.0))
@example(("inner_product_request", cartan.parse_type("A1affine"), [], [], [], None))
@example(("classify", cartan.parse_type("A2"), None, [], [], 0))
@example(("classify", cartan.parse_type("A2"), 5, [], [], 0))
@example(("classify", cartan.parse_type("A2"), [5, 6], [], [], 0))
@example(("classify", cartan.parse_type("A2"), [[2, "x"], ["x", 2]], [], [], 0))
@example(("symmetrizer", cartan.parse_type("A2"), [[2, -1], [-1]], [], [], 0))
@example(("symmetrizer", cartan.parse_type("A2"), None, [], [], 0))
@example(("symmetrizer", cartan.parse_type("A2"), "ab", [], [], 0))
@example(("symmetrizer", cartan.parse_type("A2"), [[2, "x"], ["x", 2]], [], [], 0))
@example(("symmetrizer", cartan.parse_type("A2"), [[2, -1], [0, 2]], [], [], 0))
@example(("dominant_integral", cartan.parse_type("A2affine"), 5, [], [], 0))
@example(("compose_non_element", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("inverse_non_element", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("inversions_non_element", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("act_non_element", cartan.parse_type("A2affine"), [1, 2, 3], [], [], 5))
@example(("inverse", cartan.parse_type("A2affine"), None, [], [], 0))
@example(("act_element", cartan.parse_type("A2affine"), [1], 5, [1, 0, 0], 0))
@example(("element_to_json_non_element", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("element_to_json", cartan.parse_type("A2affine"), 5, [], [], 0))
@example(("maximal_certificates_non_ambient", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("is_self_associate_non_subset", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("finite_self_associate_non_ambient", cartan.parse_type("A2"), [], [], [], 5))
@example(("constant_term_report_non_certificate", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("removed_node_image_non_ambient", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("longest_element_non_ambient", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("levi_type_non_subset", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("parabolic_subset_non_ambient", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("maximal_parabolics_non_ambient", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("component_types_non_ambient", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("positive_roots_non_ambient", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("dual_coxeter_non_ambient", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("central_coroot_non_ambient", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("from_word_non_ambient", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("ball_sizes_non_ambient", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("central_value_non_ambient", cartan.parse_type("A2affine"), [0, 0, 0], [], [], 5))
@example(("godement_cuspidal_non_ambient", cartan.parse_type("A2affine"), [0, 0, 0], [], [], 5))
@example(("pairing_kernel_non_ambient", cartan.parse_type("A2affine"), [0, 0, 0], [0, 0, 0], [0, 0, 0], 5))
@example(("region_scan_non_ambient", cartan.parse_type("A2affine"), [0, 0, 0], [0, 0, 0], [0, 0, 0], 5))
# each of these raised a raw AttributeError on an ambient of 5
@example(("components_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("irreducible_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("affinize_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("to_json_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("highest_root_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("marks_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("comarks_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("delta_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("root_system_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("affine_roots_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("pairing_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("roots_in_span_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("reduce_word_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("enumerate_elements_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("weyl_vector_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("dominant_integral_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("associate_necessary_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
@example(("maximal_levi_types_non_ambient", cartan.parse_type("A2affine"), 5, [1, 0, 0], [0, 1, 0], 0))
# and these raised a raw TypeError (unhashable list) from the fact store, before any gate ran
@example(("affinize_non_ambient", cartan.parse_type("A2affine"), [[2, -2], [-2, 2]], [], [], 0))
@example(("highest_root_non_ambient", cartan.parse_type("A2affine"), [[2, -2], [-2, 2]], [], [], 0))
@example(("marks_non_ambient", cartan.parse_type("A2affine"), [[2, -2], [-2, 2]], [], [], 0))
@example(("comarks_non_ambient", cartan.parse_type("A2affine"), [[2, -2], [-2, 2]], [], [], 0))
@example(("maximal_levi_types_non_ambient", cartan.parse_type("A2affine"), [[2, -2], [-2, 2]], [], [], 0))
@example(("dual_coxeter_rows", cartan.parse_type("A2affine"), [[2, -2], [-2, 2]], [], [], 0))
@example(("central_coroot_rows", cartan.parse_type("A2affine"), [[2, -2], [-2, 2]], [], [], 0))
# and these were answered: a negative entry, (1, -1), and an image () from a matrix the word does not give
@example(("symmetrizer", cartan.parse_type("A2"), [[2, -1], [1, 2]], [], [], 0))
@example(("act_element", cartan.parse_type("A2affine"), [1], [], [1, 0, 0], 0))
# and these raised a raw AttributeError ('int' object has no attribute 'strip') or TypeError
@example(("parse_type", cartan.parse_type("A2"), 5, [], [], 0))
@example(("finite_cartan", cartan.parse_type("A2"), [[2, -2], [-2, 2]], [], [], 1))
@example(("height", cartan.parse_type("A2"), 5, [], [], 0))
@example(("is_positive", cartan.parse_type("A2"), 5, [], [], 0))
# and these raised a raw TypeError or ValueError, or read a flag that is no bool by its truth value
@example(("all_types_flag", cartan.parse_type("A2"), [], [], [], "x"))
@example(("all_types_flag", cartan.parse_type("A2"), [], [], [], 2))
@example(("inner_product_flag", cartan.parse_type("A1affine"), [0, 0], [0, 0], [0, 0], "no"))
# and the serializers raised a raw AttributeError on a record of 5
@example(("certificate_to_json_non_certificate", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("levi_to_json_non_levi", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("functional_to_json_non_functional", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("region_to_json_non_report", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("root_system_to_json_non_data", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("affine_slice_to_json_non_slice", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("value_to_json_non_value", cartan.parse_type("A2affine"), [], [], [], 5))
@example(("scan_to_json_non_report", cartan.parse_type("A2affine"), [], [], [], 5))
# and an element read as a word, vector, value list, matrix or node list, on
# A2affine, whose three nodes match the element's three fields
@example(("from_word_element", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("reduce_word_element", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("act_element_as_vector", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("functional_element", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("from_matrix_element", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("parabolic_subset_element", cartan.parse_type("A2affine"), [], [], [], 0))
# and these records were made (constant_term_is_trivial answered the first three for nodes 2, 1 and 2)
@example(("parabolic_subset_record_repeated_node", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("parabolic_subset_record_text_nodes", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("parabolic_subset_record_node_out_of_range", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("parabolic_subset_record_all_nodes", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("parabolic_subset_record_finite_ambient", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("parabolic_subset_record", cartan.parse_type("A2affine"), [1, 1], [], [], 0))
# and these Cartan matrices were made: readers raised a raw TypeError on the first two, to_json a raw
# ValueError on the last three, and the others were answered (A2 rows flagged affine were convergent at g = 2)
@example(("cartan_matrix_record_lists", cartan.parse_type("A2"), [], [], [], 0))
@example(("cartan_matrix_record_numpy", cartan.parse_type("A2"), [], [], [], 0))
@example(("cartan_matrix_record_ragged", cartan.parse_type("A2"), [], [], [], 0))
@example(("cartan_matrix_record_empty", cartan.parse_type("A2"), [], [], [], 0))
@example(("cartan_matrix_record_other_label", cartan.parse_type("A2"), [], [], [], 0))
@example(("cartan_matrix_record_flagged_affine", cartan.parse_type("A2"), [], [], [], 0))
@example(("cartan_matrix_record_positive_entries", cartan.parse_type("A2"), [], [], [], 0))
@example(("cartan_matrix_record_one_sided_zero", cartan.parse_type("A2"), [], [], [], 0))
@example(("cartan_matrix_record_int_flag", cartan.parse_type("A2"), [], [], [], 0))
@example(("cartan_matrix_record_labelled_flagged_affine", cartan.parse_type("A2"), [], [], [], 0))
@example(("cartan_matrix_record_label_foo", cartan.parse_type("A2"), [], [], [], 0))
@example(("cartan_matrix_record_label_z2", cartan.parse_type("A2"), [], [], [], 0))
# and these spectral parameters raised a raw TypeError: a list is unhashable, a generator was
# exhausted by the check (no len()), and a scalar is not iterable
@example(("linear_functional_record_list", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("linear_functional_record_generator", cartan.parse_type("A2affine"), [], [], [], 0))
@example(("linear_functional_record_scalar", cartan.parse_type("A2affine"), [], [], [], 0))
# and NaN and infinite parameters, float and complex parts, built directly and from JSON
@example(("functional", cartan.parse_type("A2affine"), [math.nan] * 3, [], [], 0))
@example(("functional", cartan.parse_type("A2affine"), [complex(-3, math.inf)] * 3, [], [], 0))
@example(("godement_cuspidal", cartan.parse_type("A2affine"), [-1.0, math.inf, -math.inf], [], [], 0))
@example(("implication_check", cartan.parse_type("A2affine"), [complex(math.nan, 0)] * 3, [], [], 0))
@example(("pairing_kernel", cartan.parse_type("A1affine"), [-1.0, -1.0], [complex(0, -math.inf), 0.0], [0, 0], 1.0))
@example(("functional_from_json", cartan.parse_type("A2affine"), {"values": [math.nan, [0.0, math.inf], 1]}, [], [], 0))
@example(("godement_cuspidal_from_json", cartan.parse_type("A2affine"), [[math.nan, 0.0], -1, -1], [], [], 0))
@example(("region_scan_from_json", cartan.parse_type("A1affine"), [-1, -1], {"values": [-math.inf, 0]}, [0, 0], 0))
# and a label of a non-ASCII digit raised a raw ValueError from int()
@example(("parse_type", cartan.parse_type("A2"), "A²", [], [], 0))
# and pairing and reflect read no vector through a gate: a generator, an int and an element
# raised a raw TypeError, and a set, floats and a Fraction were answered
@example(("pairing", cartan.parse_type("A2affine"), (b for b in (1, 0, 0)), [], [], 0))
@example(("reflect", cartan.parse_type("A2affine"), (b for b in (1, 0, 0)), [], [], 0))
@example(("pairing", cartan.parse_type("A2affine"), 5, [], [], 0))
@example(("reflect", cartan.parse_type("A2affine"), 5, [], [], 0))
@example(("pairing", cartan.parse_type("A2affine"), {0, 1, 2}, [], [], 0))
@example(("reflect", cartan.parse_type("A2affine"), {0, 1, 2}, [], [], 0))
@example(("pairing", cartan.parse_type("A2affine"), weyl.simple(cartan.parse_type("A2affine"), 1), [], [], 0))
@example(("reflect", cartan.parse_type("A2affine"), weyl.simple(cartan.parse_type("A2affine"), 1), [], [], 0))
@example(("reflect", cartan.parse_type("A2affine"), [1.0, 0.5, Fraction(1, 2)], [], [], 0))
# and a length bound of 10**18 raised a bare MemoryError from the list of its counts
@example(("ball_sizes", cartan.parse_type("A2affine"), 10**18, [], [], 0))
@example(("maximal_certificates", cartan.parse_type("A2affine"), [], [], [], 10**18))
def test_api_fuzz_raises_only_library_errors(call):
    """Only LoopAtlasError subclasses may escape the Python API, and the
    calls in ``_REFUSED`` must raise one."""
    name, cm, a, b, t, x = call
    try:
        _API[name](cm, a, b, t, x)
    except LoopAtlasError:
        return
    assert name not in _REFUSED, f"{name} was answered"


def test_api_fuzz_sets_name_only_fuzzed_calls():
    """A name left in one of the fuzz's sets after its call has left
    ``_API`` widens no draw and refuses nothing, so nobody would notice."""
    for names in (_ROWS_AS_AMBIENT, _SEQUENCE_CALLS, _OBJECT_CALLS, _MATRIX_CALLS, _REFUSED):
        assert names <= _API.keys(), sorted(names - _API.keys())


_CATALOG = cartan.all_types(4, affine=False) + cartan.all_types(4)


@st.composite
def _hand_built_rows(draw):
    """Rows a caller may build a record of: a catalog type to rank 4 with
    its nodes permuted (the attached node anywhere), a block sum of two,
    or rank-2 and rank-3 rows of freely drawn bonds, hyperbolic, twisted,
    non-symmetrizable and named ones among them."""

    def permuted():
        rows = draw(st.sampled_from(_CATALOG)).entries
        perm = draw(st.permutations(range(len(rows))))
        return [[rows[i][j] for j in perm] for i in perm]

    shape = draw(st.sampled_from(["permuted", "block", "bonds"]))
    if shape == "permuted":
        return permuted()
    if shape == "block":
        a, b = permuted(), permuted()
        return [row + [0] * len(b) for row in a] + [[0] * len(a) + row for row in b]
    n = draw(st.integers(2, 3))
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rows[i][j], rows[j][i] = -draw(st.integers(1, 4)), -draw(st.integers(1, 4))
    return rows


@settings(max_examples=300, deadline=None)
@given(_hand_built_rows(), st.booleans())
@example([[2, -3], [-3, 2]], False)  # hyperbolic: made, flagged finite and unlabelled
@example([[2, -1], [-4, 2]], True)  # twisted: no named type, so not affine
@example([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], True)
@example([[2, -1, 0], [-1, 2, 0], [0, 0, 2]], True)
@example([[2, -2, 0], [-2, 2, 0], [0, 0, 2]], False)  # A1affine + A1: made, flagged finite
def test_cartan_matrix_decides_the_type_as_from_matrix(rows, flag):
    """Wherever ``from_matrix`` answers, the constructor given its flag
    makes the same record and refuses the other flag; elsewhere it
    refuses, or makes a record flagged finite with no label.  JSON rows
    with a flag are read by the constructor: every record it makes reads
    back, and the other flag is refused (unnamed rows used to be refused
    and the flag dropped)."""
    try:
        want = cartan.from_matrix(rows)
    except LoopAtlasError:
        want = None
    if want is not None:
        assert cartan.CartanMatrix(rows, want.is_affine) == want
        with pytest.raises(LoopAtlasError):
            cartan.CartanMatrix(rows, not want.is_affine)
        with pytest.raises(LoopAtlasError):
            cartan.from_json({"matrix": rows, "affine": not want.is_affine})
        got = want
    else:
        try:
            got = cartan.CartanMatrix(rows, flag)
        except LoopAtlasError:
            return
        assert (got.entries, got.is_affine, got.label) == (tuple(map(tuple, rows)), False, None)
    assert cartan.from_json(json.loads(json.dumps(cartan.to_json(got)))) == got
