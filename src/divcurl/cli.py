"""Command line front end.

Subcommands:

* increments N K            admissible degree increments and their N
* laplacian N K ELL         integer coefficient tensor of the Hodge Laplacian
* symbol N K ELL            exact symbol matrices and ellipticity scans
* verify                    the exact identity battery
* ineq                      numerical inequality probe suite

All JSON output is canonical (sorted keys, two-space indent, trailing
newline) so runs with equal inputs are byte identical.  The Laplacian's
entry rows, up to 30 MB of them, are formatted directly in the bytes that
json.dumps(..., sort_keys=True, indent=2) would give, one cached text per
repeated label or multi-index; the golden sha256 hashes in
tests/test_cli.py guard those bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .increments import increment_scan
from .operators import box_coeff_tensor, spec_for, top_coeff_tensor
from .symbol import box_symbol, ellipticity_scan


def _emit(payload: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cmd_increments(args) -> int:
    admissible, rejected = increment_scan(args.n, args.k)
    if args.format == "json":
        obj = {
            "schema": "divcurl.increments/1",
            "package_version": __version__,
            "n": args.n,
            "k": args.k,
            "m": admissible[0].m if admissible else None,
            "admissible": [{"ell": s.ell, "N": s.N, "m": s.m}
                           for s in admissible],
            "rejected": [{"ell": s.ell, "N": s.N,
                          "reason": "N < n - 1 + ell"} for s in rejected],
        }
        _emit(_json(obj), args.out)
    elif args.format == "csv":
        lines = ["ell,N,m"]
        lines += [f"{s.ell},{s.N},{s.m}" for s in admissible]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"admissible increments for n={args.n}, k={args.k} "
                 f"(m={admissible[0].m if admissible else 0}):"]
        for s in admissible:
            lines.append(f"  ell={s.ell}  N={s.N}")
        for s in rejected:
            lines.append(f"  rejected ell={s.ell} (N={s.N}): N < n - 1 + ell")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _index_text(t, cache) -> str:
    """One label or multi-index as an element of an entries row."""
    text = cache.get(t)
    if text is None:
        text = ("[\n" + ",\n".join(f"        {x}" for x in t) + "\n      ]"
                if t else "[]")
        cache[t] = text
    return text


def _laplacian_json(obj, rows) -> str:
    """_json(obj) with the sorted (M, I, alpha, beta, value) rows under
    "entries", the first of its sorted keys.  One join builds the text,
    so the document is held once beside its row strings."""
    cache = {}
    parts = [
        f"    [\n      {_index_text(M, cache)},\n      {_index_text(I, cache)},"
        f"\n      {_index_text(a, cache)},\n      {_index_text(b, cache)},"
        f"\n      {v}\n    ]"
        for (M, I, a, b), v in rows]
    if parts:
        parts[0] = '{\n  "entries": [\n' + parts[0]
        parts[-1] += "\n  ]"
    else:
        parts = ['{\n  "entries": []']
    parts[-1] += ",\n" + _json(obj)[2:]
    return ",\n".join(parts)


def _cmd_laplacian(args) -> int:
    spec = spec_for(args.n, args.k, args.ell, kind=args.ordering)
    width = spec.n if args.source else spec.N
    q = args.q if args.q is not None else min(spec.ell, width)
    tensor = (top_coeff_tensor(spec, q) if args.source
              else box_coeff_tensor(spec, q))
    kronecker = tensor.is_kronecker()
    rows = sorted(tensor.entries.items())
    if args.format == "json":
        obj = {
            "schema": "divcurl.laplacian/1",
            "package_version": __version__,
            "spec": spec.describe(),
            "q": q,
            "source_space": args.source,
            "kronecker": kronecker,
        }
        _emit(_laplacian_json(obj, rows), args.out)
    else:
        lines = [f"Laplacian tensor n={args.n} k={args.k} ell={args.ell} "
                 f"N={spec.N} q={q} ordering={args.ordering}"
                 + (" (source space)" if args.source else ""),
                 f"entries: {len(rows)}  kronecker: {kronecker}"]
        for (M, I, a, b), v in rows:
            lines.append(f"  M={M} I={I} alpha={a} beta={b}: {v:+d}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_symbol(args) -> int:
    spec = spec_for(args.n, args.k, args.ell, kind=args.ordering)
    width = spec.n if args.source else spec.N
    q = args.q if args.q is not None else 0
    if args.xi is not None:
        from fractions import Fraction

        try:
            xi = tuple(Fraction(part) for part in args.xi.split(","))
        except ZeroDivisionError:
            raise ValueError(f"--xi {args.xi}: zero denominator") from None
        labs, S = box_symbol(spec, q, xi, source=args.source)
        obj = {
            "schema": "divcurl.symbol/1",
            "package_version": __version__,
            "spec": spec.describe(),
            "q": q,
            "source_space": args.source,
            "xi": [str(x) for x in xi],
            "labels": [list(L) for L in labs],
            "matrix": [[str(v) for v in row] for row in S],
        }
        if args.format == "json":
            _emit(_json(obj), args.out)
        else:
            lines = [f"symbol at xi={args.xi} (q={q}):"]
            for L, row in zip(labs, S):
                lines.append(f"  {L}: " + "  ".join(str(v) for v in row))
            _emit("\n".join(lines) + "\n", args.out)
    else:
        report = ellipticity_scan(spec, q, source=args.source,
                                  samples=args.samples, seed=args.seed)
        report["schema"] = "divcurl.symbol-scan/1"
        report["package_version"] = __version__
        if args.format == "json":
            _emit(_json(report), args.out)
        else:
            lines = [
                f"ellipticity scan (q={q}"
                + (", source space" if args.source else "")
                + f", {report['directions_tested']} directions):",
                f"  min quotient {report['min_quotient']:.6g}"
                f" at xi={report['min_at']}",
                f"  max quotient {report['max_quotient']:.6g}",
                f"  degenerate directions found: "
                f"{len(report['degenerate_witnesses'])}",
            ]
            for w in report["degenerate_witnesses"][:5]:
                lines.append(f"    witness xi={list(w)}")
            _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_cases(text):
    cases = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad case {chunk!r}: expected "
                             "'n,k,ell,ordering'")
        n, k, ell, kind = parts
        cases.append((int(n), int(k), int(ell), kind.strip()))
    return cases


_SCOPES = {
    "all": None,
    "operators": ("adjoint", "TT_", "source_adjoint", "star_"),
    "laplacian": ("box_", "tensor_", "source_tensor"),
    "symbol": ("symbol_",),
    "dictionary": ("lift_", "reduction_", "divergence_"),
}


def _cmd_verify(args) -> int:
    from .verify import run_verify

    cases = _parse_cases(args.cases) if args.cases else None
    report = run_verify(cases=cases, seed=args.seed, deep=args.deep)
    prefixes = _SCOPES[args.scope]
    if prefixes is not None:
        records = [r for r in report["records"]
                   if r["name"].startswith(prefixes)]
        report["records"] = records
        report["checks_run"] = len(records)
        report["checks_failed"] = sum(not r["passed"] for r in records)
        report["all_passed"] = report["checks_failed"] == 0
        report["scope"] = args.scope
    if args.format == "json":
        _emit(_json(report), args.out)
    else:
        lines = [f"identity battery: {report['checks_run']} checks, "
                 f"{report['checks_failed']} failed"]
        for r in report["records"]:
            if not r["passed"]:
                lines.append(f"  FAIL {r['name']} [{r['case']}] {r['detail']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report["all_passed"] else 1


def _cmd_ineq(args) -> int:
    from .inequalities import default_config, run_suite

    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    else:
        config = default_config()
    if args.seed is not None:
        config["seed"] = args.seed
    report = run_suite(config)
    if args.format == "json":
        _emit(_json(report), args.out)
    else:
        lines = [f"inequality probes (seed {report['seed']}):"]
        for r in report["results"]:
            summary = {k: v for k, v in r.items()
                       if isinstance(v, (int, float)) and k != "q"}
            parts = "  ".join(f"{k}={v:.4g}" for k, v in summary.items())
            lines.append(f"  {r['kind']}: {parts}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="divcurl",
        description="higher order differential complexes: exact identities, "
                    "Laplacian tensors, symbols and inequality probes",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("increments", help="admissible degree increments")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--format", choices=("json", "text", "csv"),
                   default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_increments)

    p = sub.add_parser("laplacian", help="Hodge Laplacian coefficient tensor")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("ell", type=int)
    p.add_argument("--ordering", default="lexicographic",
                   choices=("lexicographic", "diagonal", "chained"))
    p.add_argument("--q", type=int, default=None,
                   help="form degree (default: ell)")
    p.add_argument("--source", action="store_true",
                   help="restrict labels to the source space")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_laplacian)

    p = sub.add_parser("symbol", help="exact symbol matrix or ellipticity scan")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("ell", type=int)
    p.add_argument("--ordering", default="lexicographic",
                   choices=("lexicographic", "diagonal", "chained"))
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--xi", help="comma separated rational frequency, "
                                "e.g. '1,-2/3'; one that starts with '-' "
                                "needs '=': --xi=-1/2,0; omit to run a scan")
    p.add_argument("--samples", type=int, default=40,
                   help="random sphere directions when scanning")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--source", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("verify", help="exact identity battery")
    p.add_argument("--cases",
                   help="semicolon list 'n,k,ell,ordering;...' "
                        "(default: every admissible case for n,k <= 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deep", action="store_true",
                   help="sweep every degree instead of a spread")
    p.add_argument("--scope", choices=sorted(_SCOPES), default="all",
                   help="restrict which check families are reported")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ineq", help="numerical inequality probes")
    p.add_argument("--config", help="JSON probe configuration file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ineq)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"divcurl: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
