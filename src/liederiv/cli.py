"""Command-line front end.

Commands: describe (construct a parabolic and dump its data), der (the
dimensions and verdict of ``verify_main_theorem``), decompose (split a
user-supplied derivation matrix), verify (sweep that check over all
compositions up to a bound), h1 (outer dimension). Output is JSON by
default or aligned text tables; identical requests, including the seed,
produce byte-identical payloads.

Exit codes: 0 success, 2 usage error, 3 theorem/invariant violation,
4 invalid mathematical input.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from json.encoder import encode_basestring_ascii

from .derivations import (
    DecompositionError,
    NotADerivationError,
    constructive_decompose,
    derivation_algebra,
    random_combination,
    verify_main_theorem,
)
from .lie import EndoMatrix
from .linalg import Q, integer, rational
from .parabolic import adapted_subspaces, build_standard_parabolic, compositions

__all__ = ["main"]


@functools.cache  # the parser is static; parse_args fills a new namespace per call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liederiv",
        description="Exact derivation algebras of block parabolic subalgebras of gl_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=integer, required=True, help="size of the ambient gl_n")
        p.add_argument("--blocks", required=True, help="composition, e.g. 3,2,1")
        p.add_argument("--extra-center", type=integer, default=0, dest="extra_center",
                       help="extra central generators to adjoin")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("describe", help="construct a parabolic and dump its data")
    common(p)

    p = sub.add_parser("der", help="derivation algebra dimensions and formula check")
    common(p)

    p = sub.add_parser("decompose", help="split a derivation matrix into its two parts")
    common(p)
    p.add_argument("--input", default="-", help="derivation JSON file, or - for stdin")

    p = sub.add_parser("verify", help="sweep the decomposition theorem over compositions")
    p.add_argument("--max-n", type=integer, default=5, dest="max_n")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--rounds", type=integer, default=20,
                   help="random decompositions per case")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("h1", help="dimension of the outer part Der/ad")
    common(p)
    return parser


def _parabolic(args):
    try:
        blocks = tuple(map(integer, args.blocks.split(",")))
    except ValueError:
        raise ValueError(f"cannot parse composition {args.blocks!r}") from None
    if args.n < 1:
        raise ValueError("n must be at least 1")
    # the build refuses a block below 1 before its size limit; --n must be
    # checked against the sum only after that
    if min(blocks) >= 1 and sum(blocks) != args.n:
        raise ValueError(f"blocks {blocks} do not sum to n={args.n}")
    return build_standard_parabolic(blocks, extra_center=args.extra_center)


def cmd_describe(args) -> tuple[dict, int]:
    q = _parabolic(args)
    s = adapted_subspaces(q)
    payload = q.algebra.to_json_dict()
    payload.update(
        {
            "n": q.n,
            "blocks": list(q.blocks),
            "extra_center": q.extra_center,
            "delta": list(range(1, q.n)),
            "delta_prime": list(q.delta_prime),
            "center_dim": s["g_z"].dim,
            "cartan_dim": s["cartan"].dim,
            "c_dim": s["c"].dim,
            "t_dim": s["t"].dim,
            "derived_dim": s["derived"].dim,
            "semisimple_dim": s["semisimple_part"].dim,
            "levi_dim": s["levi"].dim,
            "nilradical_dim": s["nilradical"].dim,
            "levi_center_dim": s["levi_center"].dim,
            "levi_semisimple_dim": s["levi_semisimple"].dim,
            "subspaces": {
                name: [[str(e) for e in row] for row in space.vectors()]
                for name, space in s.items()
            },
        }
    )
    return payload, 0


def cmd_der(args) -> tuple[dict, int]:
    q = _parabolic(args)
    report = verify_main_theorem(q, derivation_algebra(q.algebra))
    payload = {
        "n": q.n,
        "blocks": list(q.blocks),
        **{k: getattr(report, k) for k in ("der_dim", "l_dim", "inner_dim", "h1_dim",
                                           "formula_dim", "formula_ok")},
        "center_dim": len(q.center_indices),
        "c_dim": len(q.c_indices),
        "derived_dim": len(q.derived_indices),
    }
    return payload, 0 if report.ok else 3


def _read_derivation(args, algebra) -> EndoMatrix:
    """Parse {"dim": d, "matrix": d rows of d entries}; each entry is a JSON
    integer or a rational string such as "-3/4", never a float, read by
    ``rational``; ``EndoMatrix.from_flat`` checks and copies the flat map once."""
    dim = algebra.dim
    try:
        if args.input == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object with keys dim and matrix")
    if type(data.get("dim")) is not int:
        raise ValueError("input dim must be an integer")
    if data["dim"] != dim:
        raise ValueError(f"input dimension {data['dim']} does not match parabolic dim {dim}")
    rows = data.get("matrix")
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValueError(f"matrix must be a list of {dim} rows")
    # the string "0" is skipped; each other distinct string is parsed once,
    # and an entry that fails is never stored, so the error names its first
    # place
    parsed: dict[str, int | Q] = {}
    flat: dict[int, int | Q] = {}
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"expected a list of {dim} entries at row {i}")
        for j, e in enumerate(row):
            if e == "0":
                continue
            v = e if type(e) is int else parsed.get(e) if type(e) is str else None
            if v is None:
                # JSON holds no Fraction, so this raises unless e is a string
                v = parsed[e] = rational(e, f"at row {i}, column {j}")
            if v:
                flat[j * dim + i] = v
    return EndoMatrix.from_flat(algebra, flat)


def cmd_decompose(args) -> tuple[dict, int]:
    q = _parabolic(args)
    result = constructive_decompose(q, _read_derivation(args, q.algebra))
    return result.to_json_dict(), 0


def cmd_h1(args) -> tuple[dict, int]:
    payload, code = cmd_der(args)
    return {k: payload[k] for k in ("n", "blocks", "h1_dim")}, code


def _verify_case(q, rounds: int, rng) -> dict:
    der = derivation_algebra(q.algebra)
    report = verify_main_theorem(q, der)
    failure = None
    for r in range(rounds):
        D = random_combination(q.algebra, der, rng)
        try:
            constructive_decompose(q, D)
        except (NotADerivationError, DecompositionError) as exc:
            failure = {"kind": "decompose", "round": r, "error": str(exc)}
            break
    row = {
        "n": q.n,
        "blocks": list(q.blocks),
        **{k: getattr(report, k) for k in ("der_dim", "l_dim", "inner_dim", "h1_dim",
                                           "direct_sum_ok", "l_is_ideal_ok",
                                           "inner_is_ideal_ok", "formula_ok")},
        "decompose_ok": failure is None,
        "ok": report.ok and failure is None,
    }
    if witness := report.counterexample or failure:  # the theorem check's comes first
        row["witness"] = witness
    return row


def cmd_verify(args) -> tuple[dict, int]:
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    if args.rounds < 0:
        raise ValueError("--rounds must be nonnegative")
    # the sweep's largest q, gl_max_n itself: the build's size check refuses
    # an oversized sweep before it starts
    build_standard_parabolic((args.max_n,))
    cases = []
    index = 0
    for n in range(1, args.max_n + 1):
        for blocks in compositions(n):
            rng = random.Random(args.seed * 1000003 + index)
            q = build_standard_parabolic(blocks)
            cases.append(_verify_case(q, args.rounds, rng))
            index += 1
    all_ok = all(c["ok"] for c in cases)
    payload = {
        "max_n": args.max_n,
        "seed": args.seed,
        "rounds": args.rounds,
        "cases": cases,
        "summary": {"cases": len(cases), "all_ok": all_ok},
    }
    return payload, 0 if all_ok else 3


# ---------------------------------------------------------------------------
# JSON and text rendering
# ---------------------------------------------------------------------------

# the text of a scalar by its exact type, so a bool is not written as an int
_SCALAR = {str: encode_basestring_ascii, int: repr, bool: {False: "false", True: "true"}.get,
           type(None): lambda _: "null"}
_NO_ELEMENT = object()


def _json(obj, indent: str = "\n") -> str:
    """The bytes of ``json.dumps(obj, indent=2)`` for dicts with str keys,
    lists, str, int, bool and None; anything else, a float included, raises
    TypeError. A list of strings is quoted by one join."""
    write = _SCALAR.get(type(obj))
    if write:
        return write(obj)
    inner = indent + "  "
    sep = "," + inner
    if type(obj) is list:
        if not obj:
            return "[]"
        if type(obj[0]) is str:
            try:
                return "[" + inner + sep.join(map(encode_basestring_ascii, obj)) + indent + "]"
            except TypeError:  # not every entry is a str
                pass
        # an element that is the previous one, such as a shared all-zero row
        # of a decompose payload, reuses its text; identity never confuses 1
        # with True, and the sentinel is no element, None included
        parts, prev, text = [], _NO_ELEMENT, ""
        for e in obj:
            if e is not prev:
                write = _SCALAR.get(type(e))
                prev, text = e, write(e) if write else _json(e, inner)
            parts.append(text)
        return "[" + inner + sep.join(parts) + indent + "]"
    if type(obj) is dict:
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + inner + sep.join(items) + indent + "}"
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _render_table(headers: list[str], rows: list[list]) -> str:
    table = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for ridx, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if ridx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _l_block_grid(center_dim: int, c_dim: int, derived_dim: int) -> str:
    """ASCII block form of the center-valued maps in the adapted basis."""
    names = [f"center({center_dim})", f"c({c_dim})", f"derived({derived_dim})"]
    rows = [
        [names[0], "*", "*", "0"],
        [names[1], "0", "0", "0"],
        [names[2], "0", "0", "0"],
    ]
    return _render_table([""] + names, rows)


_TEXT_FIELDS = {
    "describe": ("n", "blocks", "extra_center", "dim", "delta", "delta_prime",
                 "center_dim", "cartan_dim", "c_dim", "t_dim", "derived_dim",
                 "semisimple_dim", "levi_dim", "nilradical_dim",
                 "levi_center_dim", "levi_semisimple_dim"),
    "der": ("n", "blocks", "der_dim", "l_dim", "inner_dim", "h1_dim",
            "formula_dim", "formula_ok"),
    "h1": ("n", "blocks", "h1_dim"),
}


def _render_text(command: str, payload: dict) -> str:
    if command in _TEXT_FIELDS:
        text = _render_table(["field", "value"],
                             [[k, payload[k]] for k in _TEXT_FIELDS[command]])
        if command == "der":
            grid = _l_block_grid(payload["center_dim"], payload["c_dim"], payload["derived_dim"])
            text += "\n\nblock form of the center-valued maps:\n" + grid
        return text
    if command == "verify":
        headers = ["n", "blocks", "der", "l", "inner", "h1", "ok"]
        rows = [
            [c["n"], ",".join(str(b) for b in c["blocks"]), c["der_dim"],
             c["l_dim"], c["inner_dim"], c["h1_dim"], c["ok"]]
            for c in payload["cases"]
        ]
        summary = payload["summary"]
        return (
            _render_table(headers, rows)
            + f"\n\ncases: {summary['cases']}  all_ok: {summary['all_ok']}"
        )
    return _json(payload)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        handler = {
            "describe": cmd_describe,
            "der": cmd_der,
            "decompose": cmd_decompose,
            "verify": cmd_verify,
            "h1": cmd_h1,
        }[args.command]
        payload, code = handler(args)
    except NotADerivationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:  # a DecompositionError or a failed invariant check
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "text":
        print(_render_text(args.command, payload))
    else:
        print(_json(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
