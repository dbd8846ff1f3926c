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
repeated label or multi-index, and written in blocks of _BLOCK rows, so
the document is never held whole; the golden sha256 hashes in
tests/test_cli.py guard those bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .increments import admissible_increments
from .inequalities import default_config, run_suite
from .operators import box_coeff_tensor, spec_for
from .symbol import box_symbol, ellipticity_scan
from .verify import run_verify


_BLOCK = 4096  # Laplacian rows per written chunk


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so main prints it as one line."""
    @staticmethod
    def error(message):
        raise ValueError(message)


def _emit(text: str, fh):
    fh.write(text)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cmd_increments(args):
    admissible = admissible_increments(args.n, args.k)
    if args.format == "json":
        return _json({
            "schema": "divcurl.increments/1",
            "package_version": __version__,
            "n": args.n,
            "k": args.k,
            "m": admissible[0].m,
            "admissible": [{"ell": s.ell, "N": s.N, "m": s.m}
                           for s in admissible],
            # kept for the schema: the dimension constraint never rejects
            "rejected": [],
        })
    if args.format == "csv":
        return ["ell,N,m"] + [f"{s.ell},{s.N},{s.m}" for s in admissible]
    return ([f"admissible increments for n={args.n}, k={args.k} "
             f"(m={admissible[0].m}):"]
            + [f"  ell={s.ell}  N={s.N}" for s in admissible])


def _index_text(t, cache) -> str:
    """One label or multi-index as an element of an entries row."""
    text = cache.get(t)
    if text is None:
        text = ("[\n" + ",\n".join(f"        {x}" for x in t) + "\n      ]"
                if t else "[]")
        cache[t] = text
    return text


def _laplacian_json(obj, rows):
    """Yields _json(obj) with the sorted (M, I, alpha, beta, value) rows
    under "entries", the first of its sorted keys, _BLOCK rows a chunk."""
    cache = {}
    yield '{\n  "entries": ['
    for start in range(0, len(rows), _BLOCK):
        yield ("," if start else "") + ",".join(
            f"\n    [\n      {_index_text(M, cache)},\n      "
            f"{_index_text(I, cache)},\n      {_index_text(a, cache)},\n      "
            f"{_index_text(b, cache)},\n      {v}\n    ]"
            for (M, I, a, b), v in rows[start:start + _BLOCK])
    yield ("\n  ]" if rows else "]") + ",\n" + _json(obj)[2:]


def _cmd_laplacian(args):
    spec = spec_for(args.n, args.k, args.ell, kind=args.ordering)
    q = args.q if args.q is not None else spec.ell
    tensor = box_coeff_tensor(spec, q, args.source)
    kronecker = tensor.is_kronecker()
    rows = sorted(tensor.entries.items())
    if args.format == "json":
        return _laplacian_json({
            "schema": "divcurl.laplacian/1",
            "package_version": __version__,
            "spec": spec.describe(),
            "q": q,
            "source_space": args.source,
            "kronecker": kronecker,
        }, rows)
    return [f"Laplacian tensor n={args.n} k={args.k} ell={args.ell} "
            f"N={spec.N} q={q} ordering={args.ordering}"
            + (" (source space)" if args.source else ""),
            f"entries: {len(rows)}  kronecker: {kronecker}"] + [
        f"  M={M} I={I} alpha={a} beta={b}: {v:+d}"
        for (M, I, a, b), v in rows]


def _cmd_symbol(args):
    spec = spec_for(args.n, args.k, args.ell, kind=args.ordering)
    q = args.q if args.q is not None else 0
    if args.xi is not None:
        try:
            xi = tuple(Fraction(part) for part in args.xi.split(","))
        except ZeroDivisionError:
            raise ValueError(f"--xi {args.xi}: zero denominator") from None
        labs, S = box_symbol(spec, q, xi, source=args.source)
        if args.format == "json":
            return _json({
                "schema": "divcurl.symbol/1",
                "package_version": __version__,
                "spec": spec.describe(),
                "q": q,
                "source_space": args.source,
                "xi": [str(x) for x in xi],
                "labels": [list(L) for L in labs],
                "matrix": [[str(v) for v in row] for row in S],
            })
        return [f"symbol at xi={args.xi} (q={q}):"] + [
            f"  {L}: " + "  ".join(str(v) for v in row)
            for L, row in zip(labs, S)]
    report = ellipticity_scan(spec, q, source=args.source,
                              samples=args.samples, seed=args.seed)
    report["schema"] = "divcurl.symbol-scan/1"
    report["package_version"] = __version__
    if args.format == "json":
        return _json(report)
    return [
        f"ellipticity scan (q={q}"
        + (", source space" if args.source else "")
        + f", {report['directions_tested']} directions):",
        f"  min quotient {report['min_quotient']:.6g}"
        f" at xi={report['min_at']}",
        f"  max quotient {report['max_quotient']:.6g}",
        f"  degenerate directions found: "
        f"{len(report['degenerate_witnesses'])}",
    ] + [f"    witness xi={list(w)}"
         for w in report["degenerate_witnesses"][:5]]


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
    if not cases:
        raise ValueError(f"--cases {text!r}: expected at least one "
                         "'n,k,ell,ordering'")
    return cases


_SCOPES = {
    "all": None,
    "operators": ("adjoint", "TT_", "source_adjoint", "star_"),
    "laplacian": ("box_", "tensor_", "source_tensor"),
    "symbol": ("symbol_",),
    "dictionary": ("lift_", "reduction_", "divergence_"),
}


def _cmd_verify(args):
    cases = _parse_cases(args.cases) if args.cases is not None else None
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
    code = 0 if report["all_passed"] else 1
    if args.format == "json":
        return _json(report), code
    return [f"identity battery: {report['checks_run']} checks, "
            f"{report['checks_failed']} failed"] + [
        f"  FAIL {r['name']} [{r['case']}] {r['detail']}"
        for r in report["records"] if not r["passed"]], code


def _cmd_ineq(args):
    if args.config is not None:
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
        return _json(report)
    return [f"inequality probes (seed {report['seed']}):"] + [
        f"  {r['kind']}: " + "  ".join(
            f"{k}={v:.4g}" for k, v in r.items()
            if isinstance(v, (int, float)) and k != "q")
        for r in report["results"]]


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at its first call; parsing
    keeps no state in it, so every main call shares it.  Only a process
    that calls main more than once (a test suite, a benchmark harness)
    gains from this; a divcurl command calls it once."""
    ap = _Parser(
        prog="divcurl",
        description="higher order differential complexes: exact identities, "
                    "Laplacian tensors, symbols and inequality probes",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    fmt = argparse.ArgumentParser(add_help=False, parents=[out])
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("n", type=int)
    spec.add_argument("k", type=int)
    spec.add_argument("ell", type=int)
    spec.add_argument("--ordering", default="lexicographic",
                      choices=("lexicographic", "diagonal", "chained"))
    spec.add_argument("--q", type=int, default=None,
                      help="form degree (default: ell, or 0 for symbol)")
    spec.add_argument("--source", action="store_true",
                      help="restrict labels to the source space")

    p = sub.add_parser("increments", parents=[out],
                       help="admissible degree increments")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--format", choices=("json", "text", "csv"),
                   default="json")
    p.set_defaults(func=_cmd_increments)

    p = sub.add_parser("laplacian", parents=[spec, fmt],
                       help="Hodge Laplacian coefficient tensor")
    p.set_defaults(func=_cmd_laplacian)

    p = sub.add_parser("symbol", parents=[spec, fmt],
                       help="exact symbol matrix or ellipticity scan")
    p.add_argument("--xi", help="comma separated rational frequency, "
                                "e.g. '1,-2/3'; one that starts with '-' "
                                "needs '=': --xi=-1/2,0; omit to run a scan")
    p.add_argument("--samples", type=int, default=40,
                   help="random sphere directions when scanning")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("verify", parents=[fmt], help="exact identity battery")
    p.add_argument("--cases",
                   help="semicolon list 'n,k,ell,ordering;...' "
                        "(default: every admissible case for n,k <= 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deep", action="store_true",
                   help="sweep every degree instead of a spread")
    p.add_argument("--scope", choices=sorted(_SCOPES), default="all",
                   help="restrict which check families are reported")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ineq", parents=[fmt],
                       help="numerical inequality probes")
    p.add_argument("--config", help="JSON probe configuration file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.set_defaults(func=_cmd_ineq)
    return ap


def main(argv=None) -> int:
    """Runs one subcommand, then writes the document it returns (text,
    lines, or chunks of text; verify adds its exit code) to stdout or
    --out.  Every error is one line on stderr and exit code 2."""
    try:
        args = build_parser().parse_args(argv)
        doc = args.func(args)
        doc, code = doc if isinstance(doc, tuple) else (doc, 0)
        if isinstance(doc, list):
            doc = "\n".join(doc) + "\n"
        with (open(args.out, "w") if args.out is not None
              else contextlib.nullcontext(sys.stdout)) as fh:
            for chunk in [doc] if isinstance(doc, str) else doc:
                _emit(chunk, fh)
        return code
    except (ValueError, OSError) as exc:
        print(f"divcurl: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
