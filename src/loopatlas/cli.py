"""Command line interface.

Subcommands: atlas, levi, associate, godement, ms, roots, weyl.  Output is
JSON on stdout (the atlas also speaks TSV).  Exit codes: 0 on success, 1
on domain errors, 2 on usage errors.  All output is deterministic; the
atlas in particular is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cartan, criterion, maass_selberg, parabolic, roots, serialize, weyl
from .errors import LoopAtlasError

ATLAS_COLUMNS = (
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


def _resolve_type(args) -> cartan.CartanMatrix:
    if getattr(args, "matrix_file", None):
        with open(args.matrix_file) as fh:
            obj = json.load(fh)
        return cartan.from_json(obj)
    if not getattr(args, "type", None):
        raise ValueError("give a type label or --matrix-file")
    return cartan.parse_type(args.type)


def _parse_nodes(text: str) -> tuple[int, ...]:
    stripped = text.strip()
    if not stripped:
        return ()
    return tuple(int(tok) for tok in stripped.split(","))


def _parse_functional(flag_value: str | None, uniform, size: int) -> criterion.LinearFunctional:
    if flag_value is not None:
        return criterion.functional_from_json(json.loads(flag_value))
    if uniform is not None:
        return criterion.functional([uniform] * size)
    raise ValueError("give the parameter as JSON or via --uniform")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


# --- atlas ------------------------------------------------------------------


def _atlas_rows(max_rank: int, search_bound: int) -> list[dict]:
    rows = []
    for cm in cartan.all_types(max_rank):
        g = roots.dual_coxeter(cm)
        # emission cross-checks: the all-ones functional pairs to g exactly
        if criterion.central_value(cm, criterion.weyl_vector(cm)) != g:
            raise LoopAtlasError(f"central value of the unit functional is not {g} for {cm.label}")
        certs = parabolic.maximal_certificates(cm, search_bound)
        for cert, lt in zip(certs, parabolic.maximal_levi_types(cm)):
            if sum(rank for _, rank in lt.components) != len(cert.theta):
                raise LoopAtlasError(f"Levi ranks do not partition the subset for {cm.label}")
            rows.append(
                {
                    "type": cm.label,
                    "removed_node": cert.removed_node,
                    "levi": "+".join(lt.labels),
                    "center_rank": lt.center_rank,
                    "dual_coxeter": g,
                    "convergence_threshold": -2 * g,
                    "continuation_threshold": -g,
                    "self_associate": cert.self_associate,
                    "trivial_constant_term": parabolic.constant_term_report(cert).trivial,
                    "search_bound": cert.search_bound,
                    "searched": cert.searched,
                }
            )
    return rows


def _atlas_tsv(rows: list[dict]) -> str:
    def cell(x) -> str:
        if isinstance(x, bool):
            return "true" if x else "false"
        return str(x)

    lines = ["\t".join(ATLAS_COLUMNS)]
    for row in rows:
        lines.append("\t".join(cell(row[c]) for c in ATLAS_COLUMNS))
    return "\n".join(lines)


def _run_atlas(args) -> str | None:
    rows = _atlas_rows(args.max_rank, args.max_length)
    if args.format == "tsv":
        text = _atlas_tsv(rows)
    else:
        text = _dump(
            {"max_rank": args.max_rank, "search_bound": args.max_length, "rows": rows}
        )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        return None
    return text


# --- single-subset commands -------------------------------------------------


def _run_levi(args) -> str:
    cm = _resolve_type(args)
    p = parabolic.parabolic_subset(cm, _parse_nodes(args.theta))
    lt = parabolic.levi_type(p)
    return _dump({"type": cm.label, "theta": list(p.nodes), **parabolic.levi_to_json(lt)})


def _run_associate(args) -> str:
    cm = _resolve_type(args)
    # a node outside 1..n would leave every node in and fail as "not proper"
    remove = cartan._check_node(args.remove, cm.size, "removed node")
    theta = tuple(i for i in cm.nodes if i != remove)
    p = parabolic.parabolic_subset(cm, theta)
    if args.versus is not None:
        versus = cartan._check_node(args.versus, cm.size, "removed node")
        theta_q = tuple(i for i in cm.nodes if i != versus)
        q = parabolic.parabolic_subset(cm, theta_q)
        return _dump(
            {
                "type": cm.label,
                "removed_node": args.remove,
                "versus": args.versus,
                "associate_necessary": parabolic.associate_necessary(p, q),
                "levi": list(parabolic.levi_type(p).labels),
                "levi_versus": list(parabolic.levi_type(q).labels),
            }
        )
    report = parabolic.constant_term_is_trivial(p, search_bound=args.max_length)
    cert = report.certificate
    return _dump(
        {
            "type": cm.label,
            "removed_node": args.remove,
            "self_associate": cert.self_associate,
            "trivial_constant_term": report.trivial,
            "reason": report.reason,
            "levi": list(parabolic.levi_type(p).labels),
            "certificate": parabolic.certificate_to_json(cert),
        }
    )


def _run_godement(args) -> str:
    cm = _resolve_type(args)
    f = _parse_functional(args.nu, args.uniform, cm.size)
    report = criterion.godement_cuspidal(cm, f)
    out = {"type": cm.label}
    out.update(criterion.region_to_json(report))
    return _dump(out)


def _run_ms(args) -> str:
    if args.denominator and not args.kernel:
        raise ValueError("--denominator needs --kernel")
    cm = _resolve_type(args)
    nu = _parse_functional(args.nu, None, cm.size)
    nu_prime = _parse_functional(args.nu_prime, None, cm.size)
    left = criterion.shift_by_weyl_vector(nu)
    right = criterion.shift_by_weyl_vector(nu_prime)
    truncation = (
        serialize.decode_values(json.loads(args.truncation)) if args.truncation else (0.0,) * cm.size
    )
    pairing = serialize.decode_number(json.loads(args.pairing))
    if args.kernel:
        value = maass_selberg.pairing_kernel(
            cm,
            pairing,
            left,
            right,
            truncation,
            denominator=args.denominator or maass_selberg.DENOMINATOR_CENTRAL,
            pole_tolerance=args.tolerance,
        )
    else:
        request = maass_selberg.TruncatedPairing(
            ambient=cm,
            cusp_pairing=pairing,
            left=left,
            right=right,
            truncation=truncation,
        )
        value = maass_selberg.inner_product(
            request,
            leading_minus=not args.plain_sign,
            pole_tolerance=args.tolerance,
        )
    out = {"type": cm.label}
    out.update(maass_selberg.value_to_json(value))
    return _dump(out)


def _run_roots(args) -> str:
    cm = _resolve_type(args)
    if cm.is_affine:
        return _dump(roots.affine_slice_to_json(roots.affine_roots(cm, args.depth)))
    return _dump(roots.root_system_to_json(roots.root_system(cm)))


def _run_weyl(args) -> str:
    cm = _resolve_type(args)
    w = weyl.from_word(cm, _parse_nodes(args.word))
    out = {"type": cm.label}
    out.update(weyl.element_to_json(w))
    if args.apply:
        beta = tuple(cartan._as_int(x) for x in json.loads(args.apply))
        out["image"] = list(weyl.act(w, beta))
    return _dump(out)


# --- parser -----------------------------------------------------------------


def _add_type_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("type", nargs="?", help='type label like "A2" or "E6affine"')
    sub.add_argument("--matrix-file", help="JSON file with a matrix or series/rank/affine fields")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loopatlas", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    atlas = subs.add_parser("atlas", help="tabulate every affine type and maximal subset")
    atlas.add_argument("--max-rank", type=int, default=8)
    atlas.add_argument("--max-length", type=int, default=16, help="radius of the counted ball (search_bound)")
    atlas.add_argument("--format", choices=("json", "tsv"), default="json")
    atlas.add_argument("--out", help="write to a file instead of stdout")
    atlas.set_defaults(run=_run_atlas)

    levi = subs.add_parser("levi", help="Levi decomposition of a node subset")
    _add_type_args(levi)
    levi.add_argument("--theta", required=True, help='kept nodes, like "1,3,5"')
    levi.set_defaults(run=_run_levi)

    assoc = subs.add_parser("associate", help="self-associate verdict or Levi comparison")
    _add_type_args(assoc)
    assoc.add_argument("--remove", type=int, required=True, help="omitted node")
    assoc.add_argument("--versus", type=int, help="compare against omitting this node instead")
    assoc.add_argument("--max-length", type=int, default=16, help="radius of the counted ball (search_bound)")
    assoc.set_defaults(run=_run_associate)

    godement = subs.add_parser("godement", help="convergence region of a spectral parameter")
    _add_type_args(godement)
    source = godement.add_mutually_exclusive_group()
    source.add_argument("--nu", help="JSON array of values, [re, im] pairs allowed")
    source.add_argument("--uniform", type=float, help="same value on every coroot")
    godement.set_defaults(run=_run_godement)

    ms = subs.add_parser("ms", help="truncated inner product of two series")
    _add_type_args(ms)
    ms.add_argument("--nu", required=True, help="JSON array, unshifted first parameter")
    ms.add_argument("--nu-prime", required=True, help="JSON array, unshifted second parameter")
    ms.add_argument("--truncation", help="JSON array, truncation point (default zeros)")
    ms.add_argument("--pairing", default="1", help="cusp pairing constant, JSON number")
    ms.add_argument("--tolerance", type=float, default=maass_selberg.POLE_TOLERANCE)
    sign = ms.add_mutually_exclusive_group()
    sign.add_argument("--kernel", action="store_true", help="kernel variant, no leading minus")
    ms.add_argument(
        "--denominator",
        choices=(maass_selberg.DENOMINATOR_CENTRAL, maass_selberg.DENOMINATOR_TRUNCATION),
        help="kernel variant only (default central)",
    )
    sign.add_argument("--plain-sign", action="store_true", help="drop the leading minus")
    ms.set_defaults(run=_run_ms)

    rootscmd = subs.add_parser("roots", help="root system inventory")
    _add_type_args(rootscmd)
    rootscmd.add_argument("--depth", type=int, default=3, help="level bound for affine types")
    rootscmd.set_defaults(run=_run_roots)

    weylcmd = subs.add_parser("weyl", help="reduce a word and optionally apply it")
    _add_type_args(weylcmd)
    weylcmd.add_argument("--word", required=True, help='letters like "1,2,1"')
    weylcmd.add_argument("--apply", help="JSON root vector to act on")
    weylcmd.set_defaults(run=_run_weyl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.run(args)
    except (LoopAtlasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, OverflowError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if text is not None:
        try:
            print(text)
            sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        except BrokenPipeError:
            # the reader left (``loopatlas atlas | head``); keep the flush
            # at exit from failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return 0


def entry() -> None:
    raise SystemExit(main())
