"""Command-line front end.

Commands: describe (construct a parabolic and dump its data), der (derivation
algebra dimensions and the dimension-formula check), decompose (split a
user-supplied derivation matrix), verify (sweep the decomposition theorem
over all compositions up to a bound), h1 (outer dimension). Output is JSON by
default or aligned text tables; identical requests, including the seed,
produce byte-identical payloads.

Exit codes: 0 success, 2 usage error, 3 theorem/invariant violation,
4 invalid mathematical input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .derivations import (
    DecompositionError,
    NotADerivationError,
    constructive_decompose,
    derivation_algebra,
    dimension_formula,
    inner_derivations,
    l_ideal,
    random_combination,
    verify_main_theorem,
)
from .lie import EndoMatrix, ad_matrix
from .linalg import Q, rational
from .parabolic import BlockComposition, build_standard_parabolic, compositions

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liederiv",
        description="Exact derivation algebras of block parabolic subalgebras of gl_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, blocks=True):
        p.add_argument("--n", type=int, required=True, help="size of the ambient gl_n")
        if blocks:
            p.add_argument("--blocks", required=True, help="composition, e.g. 3,2,1")
        p.add_argument("--extra-center", type=int, default=0, dest="extra_center",
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
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=20,
                   help="random decompositions per case")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("h1", help="dimension of the outer part Der/ad")
    common(p)
    return parser


def _parabolic(args):
    comp = BlockComposition.parse(args.n, args.blocks)
    return build_standard_parabolic(comp, extra_center=args.extra_center)


def _subspace_json(s) -> list[list[str]]:
    return [[str(e) for e in row] for row in s.vectors()]


def cmd_describe(args) -> tuple[dict, int]:
    q = _parabolic(args)
    payload = q.algebra.to_json_dict()
    payload.update(
        {
            "n": q.composition.n,
            "blocks": list(q.composition.blocks),
            "extra_center": q.extra_center,
            "delta": list(q.root_datum.delta),
            "delta_prime": list(q.root_datum.delta_prime),
            "center_dim": q.g_z.dim,
            "cartan_dim": q.cartan.dim,
            "c_dim": q.c.dim,
            "t_dim": q.t.dim,
            "derived_dim": q.derived.dim,
            "semisimple_dim": q.semisimple_part.dim,
            "levi_dim": q.levi.dim,
            "nilradical_dim": q.nilradical.dim,
            "levi_center_dim": q.levi_center.dim,
            "levi_semisimple_dim": q.levi_semisimple.dim,
            "subspaces": {
                name: _subspace_json(getattr(q, name))
                for name in (
                    "g_z",
                    "cartan",
                    "c",
                    "t",
                    "derived",
                    "levi",
                    "nilradical",
                    "levi_center",
                    "levi_semisimple",
                    "semisimple_part",
                )
            },
        }
    )
    return payload, 0


def cmd_der(args) -> tuple[dict, int]:
    q = _parabolic(args)
    der = derivation_algebra(q.algebra)
    inner = inner_derivations(q)
    lid = l_ideal(q)
    formula = dimension_formula(
        len(q.center_indices),
        len(q.root_datum.delta),
        len(q.root_datum.delta_prime),
        q.semisimple_part.dim,
    )
    payload = {
        "n": q.composition.n,
        "blocks": list(q.composition.blocks),
        "der_dim": der.dim,
        "l_dim": lid.dim,
        "inner_dim": inner.dim,
        "h1_dim": der.dim - inner.dim,
        "formula_dim": formula,
        "formula_ok": formula == der.dim,
        "center_dim": q.g_z.dim,
        "c_dim": q.c.dim,
        "derived_dim": q.derived.dim,
    }
    return payload, 0 if payload["formula_ok"] else 3


def _read_derivation(args, algebra) -> EndoMatrix:
    """Parse {"dim": d, "matrix": d rows of d entries}; each entry is a JSON
    integer or a rational string such as "-3/4", never a float."""
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
    cols: list[dict[int, Q]] = [{} for _ in range(dim)]
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"expected a list of {dim} entries at row {i}")
        for j, e in enumerate(row):
            cols[j][i] = rational(e, f"at row {i}, column {j}")
    return EndoMatrix(algebra, cols)


def cmd_decompose(args) -> tuple[dict, int]:
    q = _parabolic(args)
    result = constructive_decompose(q, _read_derivation(args, q.algebra))
    return result.to_json_dict(), 0


def cmd_h1(args) -> tuple[dict, int]:
    q = _parabolic(args)
    der = derivation_algebra(q.algebra)
    inner = inner_derivations(q)
    payload = {
        "n": q.composition.n,
        "blocks": list(q.composition.blocks),
        "h1_dim": der.dim - inner.dim,
    }
    return payload, 0


def _verify_case(q, rounds: int, rng) -> dict:
    der = derivation_algebra(q.algebra)
    report = verify_main_theorem(q, der)
    decompose_ok = True
    witness = report.counterexample
    for r in range(rounds):
        D = EndoMatrix.from_flat(q.algebra, random_combination(der, rng))
        try:
            res = constructive_decompose(q, D)
        except (NotADerivationError, DecompositionError) as exc:
            decompose_ok = False
            if witness is None:
                witness = {"kind": "decompose", "round": r, "error": str(exc)}
            break
        if res.l_part + ad_matrix(q.algebra, res.p) != D:
            decompose_ok = False
            if witness is None:
                witness = {"kind": "decompose_roundtrip", "round": r}
            break
    row = {"n": q.composition.n, "blocks": list(q.composition.blocks), **report.to_json_dict()}
    row.pop("counterexample", None)  # reported as the witness below
    row["decompose_ok"] = decompose_ok
    row["ok"] = row.pop("ok") and decompose_ok
    if witness is not None:
        row["witness"] = witness
    return row


def cmd_verify(args) -> tuple[dict, int]:
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    if args.rounds < 0:
        raise ValueError("--rounds must be nonnegative")
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
# text rendering
# ---------------------------------------------------------------------------

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


def _render_text(command: str, payload: dict) -> str:
    if command == "describe":
        keys = [
            "n", "blocks", "extra_center", "dim", "delta", "delta_prime",
            "center_dim", "cartan_dim", "c_dim", "t_dim", "derived_dim",
            "semisimple_dim", "levi_dim", "nilradical_dim",
            "levi_center_dim", "levi_semisimple_dim",
        ]
        return _render_table(["field", "value"], [[k, payload[k]] for k in keys])
    if command == "der":
        table = _render_table(
            ["field", "value"],
            [[k, payload[k]] for k in
             ("n", "blocks", "der_dim", "l_dim", "inner_dim", "h1_dim",
              "formula_dim", "formula_ok")],
        )
        grid = _l_block_grid(payload["center_dim"], payload["c_dim"], payload["derived_dim"])
        return table + "\n\nblock form of the center-valued maps:\n" + grid
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
    if command == "h1":
        return _render_table(["field", "value"], [[k, payload[k]] for k in payload])
    return json.dumps(payload, indent=2)


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
    except DecompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "text":
        print(_render_text(args.command, payload))
    else:
        print(json.dumps(payload, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
