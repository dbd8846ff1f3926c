"""Command line behavior: exact payloads, exit codes, determinism."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import divcurl
import divcurl.operators as ops
from divcurl import cli, symbol
from divcurl.cli import build_parser, main
from divcurl.verify import identity_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_increments_json_frozen(capsys):
    code, out = run_cli(capsys, "increments", "2", "9")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "divcurl.increments/1"
    assert obj["m"] == 10
    assert [(e["ell"], e["N"]) for e in obj["admissible"]] == \
        [(1, 10), (2, 5), (3, 5), (9, 10)]
    assert obj["rejected"] == []


def test_increments_csv_exact(capsys):
    code, out = run_cli(capsys, "increments", "2", "2", "--format", "csv")
    assert code == 0
    assert out == "ell,N,m\n1,3,3\n2,3,3\n"


def test_increments_text(capsys):
    code, out = run_cli(capsys, "increments", "3", "1", "--format", "text")
    assert code == 0
    assert "ell=1  N=3" in out


def test_laplacian_unit_step_is_kronecker(capsys):
    code, out = run_cli(capsys, "laplacian", "2", "2", "1",
                        "--ordering", "diagonal", "--q", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["kronecker"] is True
    assert obj["schema"] == "divcurl.laplacian/1"
    assert all(v in (-2, -1, 1, 2) for *_, v in obj["entries"])


def test_symbol_point_evaluation_frozen(capsys):
    code, out = run_cli(capsys, "symbol", "2", "2", "1", "--ordering",
                        "diagonal", "--xi", "2,3", "--source")
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"] == [["97"]]
    code, out = run_cli(capsys, "symbol", "2", "2", "1", "--xi", "2,3")
    matrix = json.loads(out)["matrix"]
    assert all(matrix[i][j] == ("133" if i == j else "0")
               for i in range(len(matrix)) for j in range(len(matrix)))


def test_symbol_accepts_rational_xi(capsys):
    code, out = run_cli(capsys, "symbol", "2", "1", "1", "--xi", "1,-2/3")
    assert code == 0
    obj = json.loads(out)
    # sigma = 1 + 4/9 = 13/9 on the diagonal
    assert obj["matrix"][0][0] == "13/9"


def test_symbol_scan_reports_chained_degeneracy(capsys):
    code, out = run_cli(capsys, "symbol", "2", "3", "1", "--ordering",
                        "chained", "--source", "--samples", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "divcurl.symbol-scan/1"
    assert obj["degenerate_witnesses"]


@pytest.mark.parametrize("argv, text", [
    (("symbol", "2", "2", "2", "--q", "1", "--xi=-1/2,3"),
     "symbol at xi=-1/2,3 (q=1):\n"
     "  (1,): 81  27/2  9/4\n"
     "  (2,): 27/2  9/4  3/8\n"
     "  (3,): 9/4  3/8  1/16\n"),
    (("symbol", "3", "2", "1", "--ordering", "diagonal", "--source",
      "--samples", "4"),
     "ellipticity scan (q=0, source space, 8 directions):\n"
     "  min quotient 0.333333 at xi=['1', '1', '1']\n"
     "  max quotient 1\n"
     "  degenerate directions found: 0\n"),
    (("symbol", "2", "3", "1", "--ordering", "chained", "--source",
      "--samples", "10"),
     "ellipticity scan (q=0, source space, 9 directions):\n"
     "  min quotient 0 at xi=['0', '1']\n"
     "  max quotient 1\n"
     "  degenerate directions found: 1\n"
     "    witness xi=['0', '1']\n"),
], ids=["matrix", "scan", "degenerate-scan"])
def test_symbol_text_is_exact(capsys, argv, text):
    """The text symbol matrix and the text ell = 1 scan come from exact
    arithmetic, so their text is pinned."""
    code, out = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert out == text


def test_verify_passes_and_is_byte_identical(capsys):
    args = ("verify", "--cases", "2,1,1,lexicographic", "--seed", "3")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["all_passed"] is True


# sha256 of stdout recorded before the exact backend got its one-pass
# derivative and its trusted constructor; the canonical JSON must not
# change unless the schema or the package version does.
GOLDEN_SHA256 = {
    ("verify", "--deep", "--seed", "0"):
        "48df54bd8aacbba832b427cc0c977847b1c57d0cd7adcae05a97612d2ce9b2b3",
    ("laplacian", "3", "2", "1", "--q", "2"):
        "83ef581ed641e24ab41e05fadd56d00fbc9f991fe9cfe03c61eb6096dc4e7790",
    # recorded before the Laplacian rows were formatted directly and the
    # symbol was read off a compiled integer table
    ("laplacian", "3", "4", "1", "--q", "4", "--ordering", "diagonal"):
        "12bf1c6f7cffa0930a1538c6559a359b00b9d1720a87f641e994ab839b609f10",
    ("laplacian", "2", "3", "3", "--q", "2"):
        "1ecf7296e951ad42fbc4942855a082b1c7dfa3f387cc28ba5c3d4148052323c5",
    ("laplacian", "2", "2", "2", "--q", "1", "--source"):
        "99c51f1060886cd5355724230d36c9e1ac5000a2d57fa6ad9e7728d6249fa0de",
    ("laplacian", "3", "2", "2", "--q", "0", "--source"):
        "2a44939830d86b99fae196fa63d36ccc87388e86ad741c2732a78743d9ae7e7d",
    ("symbol", "4", "2", "1", "--q", "2", "--ordering", "chained",
     "--samples", "10", "--seed", "3"):
        "d0407e5dcaef8b3fcc417d8bed6b9e650e88487351d047db93d1988ce761a081",
    ("symbol", "3", "3", "2", "--q", "2", "--samples", "10", "--seed", "5"):
        "ca40693bf57ccc1f785ee62246eb48485d1918e011806f5bf955029deed84471",
    ("symbol", "3", "2", "1", "--q", "1", "--xi=-1/2,0,2/3"):
        "1e5f9a3749e3a5dbfc9d9c6f0de8dbd6c928873e1c4e9ff0ea987272f61fd8d1",
    # recorded while the source space had its own operator and tensor
    # functions: a source tensor with entries and a source scan with labels
    ("laplacian", "3", "2", "2", "--q", "1", "--source"):
        "4b45f7379650a19c4841e9cd39266fc54bf0aeb272310cc685a1ebabfb872d36",
    # re-recorded when the scan stopped testing a direction twice
    ("symbol", "2", "3", "1", "--ordering", "chained", "--source",
     "--samples", "10", "--seed", "1"):
        "786fa57ac99b20b5ec64ce2d82d664076b7987319348b03d5ba359d3ba5379f2",
    # recorded before the exact apply ran on integer numerators and the
    # exact pairing and comparisons stopped building throwaway polynomials
    ("verify",):
        "9f173a37bc529987ac68d04a3393dd04a398595654f23529728ad43bff33f2c0",
    # recorded when the bump lines took math.exp, hodge_solve its L2
    # norms by Parseval and every grid field held its half spectrum (a
    # sampled bump reads back irfftn(rfftn(x))): the same bytes at every
    # numpy SIMD dispatch level
    ("ineq",):
        "214e5d6a802b55e9ef11b1534fa46800f48b7b423a6eb527c022bf07bc668f26",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256), ids="-".join)
def test_output_matches_golden_hash(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[argv]


def test_golden_laplacian_spans_several_row_blocks(capsys, monkeypatch):
    """The N = 15 golden document (20,475 rows) is written in several
    blocks, so its hash also guards the joins between blocks."""
    argv = ("laplacian", "3", "4", "1", "--q", "4", "--ordering", "diagonal")
    chunks = []
    monkeypatch.setattr(cli, "_emit", lambda text, fh: chunks.append(text))
    assert main(list(argv)) == 0
    assert len(chunks) >= 4     # head, two or more row blocks, tail
    digest = hashlib.sha256("".join(chunks).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[argv]


@pytest.mark.parametrize("argv", [
    ("laplacian", "2", "3", "3", "--q", "2"),               # no entries
    ("laplacian", "2", "2", "2", "--q", "1", "--source"),   # no entries
    ("laplacian", "3", "2", "2", "--q", "0", "--source"),   # empty labels
    ("laplacian", "3", "2", "2", "--q", "1", "--source"),
    ("laplacian", "3", "2", "2", "--q", "1"),
    ("laplacian", "2", "2", "1", "--q", "1", "--ordering", "chained"),
], ids="-".join)
def test_laplacian_rows_match_stdlib_json(capsys, monkeypatch, tmp_path,
                                          argv):
    """The directly formatted rows give the bytes of json.dumps on the
    row-list layout, and --out, here in blocks of two rows, writes what
    stdout prints."""
    args = build_parser().parse_args(argv)
    spec = ops.spec_for(args.n, args.k, args.ell, args.ordering)
    tensor = ops.box_coeff_tensor(spec, args.q, args.source)
    obj = {
        "spec": spec.describe(),
        "q": args.q,
        "source_space": args.source,
        "entries": [[list(M), list(I), list(a), list(b), v]
                    for (M, I, a, b), v in sorted(tensor.entries.items())],
        "schema": "divcurl.laplacian/1",
        "package_version": divcurl.__version__,
        "kronecker": tensor.is_kronecker(),
    }
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    target = tmp_path / "tensor.json"
    monkeypatch.setattr(cli, "_BLOCK", 2)
    code, printed = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and printed == ""
    assert target.read_bytes() == out.encode()


def test_source_laplacian_and_symbol_share_one_tensor(capsys):
    """laplacian --source and symbol --source at the same spec and degree
    read one cached source tensor: every call passes the same arguments."""
    ops.box_coeff_tensor.cache_clear()
    symbol._symbol_table.cache_clear()
    for argv in (("laplacian", "3", "2", "2", "--q", "1", "--source"),
                 ("symbol", "3", "2", "2", "--q", "1", "--source",
                  "--samples", "2")):
        assert run_cli(capsys, *argv)[0] == 0
    assert ops.box_coeff_tensor.cache_info().currsize == 1


def test_verify_scope_filters_records(capsys):
    code, out = run_cli(capsys, "verify", "--cases", "2,2,1,diagonal",
                        "--scope", "symbol")
    assert code == 0
    obj = json.loads(out)
    assert obj["scope"] == "symbol"
    assert obj["records"]
    assert all(r["name"].startswith("symbol_") for r in obj["records"])


def test_verify_scopes_cover_every_record_once():
    """Every record of the deep battery on an ell = 1, an odd ell >= 3 and
    an even ell spec falls in exactly one --scope family, so no family of
    checks drops out of every scoped report, and every family is met."""
    families = {scope: prefixes for scope, prefixes in cli._SCOPES.items()
                if prefixes is not None}
    rng = random.Random(0)
    met = set()
    for spec in (ops.spec_for(2, 2, 1, "diagonal"), ops.spec_for(2, 3, 3),
                 ops.spec_for(3, 2, 2)):
        for record in identity_suite(spec, rng, deep=True):
            hits = [scope for scope, prefixes in families.items()
                    if record.name.startswith(prefixes)]
            assert len(hits) == 1, (record.name, hits)
            met.update(hits)
    assert met == set(families)


def test_verify_exit_code_on_corruption(capsys, monkeypatch):
    real = ops._tstar_table.__wrapped__

    def corrupted(s, q, width):
        return tuple((I, b, V, -sg) for I, b, V, sg in real(s, q, width))

    monkeypatch.setattr(ops, "_tstar_table", corrupted)
    code, out = run_cli(capsys, "verify", "--cases", "2,1,1,lexicographic",
                        "--format", "text")
    assert code == 1
    assert "FAIL" in out


def test_ineq_text_has_one_line_per_probe_in_config_order(capsys, tmp_path):
    """A header, then one 'kind: key=value ...' line per probe in config
    order.  The digits follow numpy's SIMD dispatch, so only the structure
    is checked."""
    probes = [
        {"kind": "hodge", "n": 2, "k": 1, "ell": 1, "q": 0, "P": 16},
        {"kind": "classical_gn", "n": 2, "trials": 1, "P": 16},
        {"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 0, "trials": 1,
         "P": 16, "sigma_range": [0.25, 0.4]},
        {"kind": "duality", "n": 2, "k": 1, "q": 1, "trials": 1, "P": 16,
         "sigma_range": [0.25, 0.4]},
    ]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 4, "probes": probes}))
    code, out = run_cli(capsys, "ineq", "--config", str(path), "--format",
                        "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "inequality probes (seed 4):"
    assert len(lines) == 1 + len(probes)
    for line, probe in zip(lines[1:], probes):
        assert re.fullmatch(rf"  {probe['kind']}:( \w+=\S+)( {{2}}\w+=\S+)*",
                            line), line


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "increments", "2", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["m"] == 3


def test_ineq_with_config_file(capsys, tmp_path):
    config = {
        "seed": 4,
        "probes": [
            {"kind": "classical_gn", "n": 2, "trials": 2, "P": 32},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(capsys, "ineq", "--config", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["seed"] == 4
    assert obj["results"][0]["max_rel_gap"] < 1e-12
    # seed override flows through
    code, out = run_cli(capsys, "ineq", "--config", str(path), "--seed", "9")
    assert json.loads(out)["seed"] == 9


def test_ineq_bad_config_exits_cleanly(capsys, tmp_path):
    config = {"seed": 4, "probes": [{"kind": "duality", "n": 2, "k": 1}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["ineq", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "divcurl: error:" in captured.err
    assert "'q'" in captured.err and "'sigma_range'" in captured.err


def test_ineq_missing_config_file_exits_cleanly(capsys, tmp_path):
    code = main(["ineq", "--config", str(tmp_path / "nope.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "divcurl: error:" in captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("config, message", [
    ([{"kind": "classical_gn", "n": 2}], "config must be a JSON object"),
    ({"probes": {"kind": "classical_gn", "n": 2}},
     "config: probes must be a list"),
    ({"probes": [["classical_gn", 2]]}, "probe 0: entry must be a JSON object"),
    ({"probes": [{"kind": "classical_gn", "n": 2, "trials": 0}]},
     "probe 0 (classical_gn): trials must be a positive integer"),
    ({"probes": [{"kind": "classical_gn", "n": 2},
                 {"kind": "classical_gn", "n": 2, "trials": "3"}]},
     "probe 1 (classical_gn): trials must be a positive integer"),
    ({"seed": "4", "probes": []}, "config: seed must be an integer"),
    ({"probes": [{"kind": "duality", "n": "2", "k": 1, "q": 1,
                  "sigma_range": [0.25, 0.4]}]},
     "probe 0 (duality): n must be an integer"),
    ({"probes": [{"kind": "classical_gn", "n": 2, "P": "32"}]},
     "probe 0 (classical_gn): P must be a positive integer"),
    ({"probes": [{"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 0,
                  "sigma_range": 0.3}]},
     "probe 0 (gn): sigma_range must be a list of two positive numbers"),
    ({"probes": [{"kind": "duality", "n": 2, "k": 1, "q": 1,
                  "sigma_range": [0.25, 0.4], "lams": []}]},
     "probe 0 (duality): lams must be a non-empty list of positive numbers"),
    # JSON reads 1e309 as inf; these ran and printed NaN, which is not JSON
    ({"probes": [{"kind": "duality", "n": 2, "k": 1, "q": 1,
                  "sigma_range": [0.25, 0.4], "lams": [1.0, float("inf")]}]},
     "probe 0 (duality): lams must be a non-empty list of positive numbers"),
    ({"probes": [{"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 0,
                  "sigma_range": [float("inf"), float("inf")]}]},
     "probe 0 (gn): sigma_range must be a list of two positive numbers"),
    # an integer past the largest float overflowed inside the probe
    ({"probes": [{"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 0,
                  "sigma_range": [0.25, 10 ** 400]}]},
     "probe 0 (gn): sigma_range must be a list of two positive numbers"),
    # finite widths whose square overflows (a traceback) or underflows
    # (NaN ratios, or a RuntimeWarning before a degenerate-probe error)
    ({"probes": [{"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 0,
                  "sigma_range": [1e308, 1e308]}]},
     "probe 0 (gn): bump width 1e+308 "),
    ({"probes": [{"kind": "duality", "n": 2, "k": 1, "q": 1,
                  "sigma_range": [0.25, 0.4], "lams": [1.0, 1e308]}]},
     "probe 0 (duality): bump width 2.5e+307 "),
    ({"probes": [{"kind": "duality", "n": 2, "k": 1, "q": 1,
                  "sigma_range": [0.25, 0.4], "lams": [1.0, 1e-300]}]},
     "probe 0 (duality): bump width 2.5e-301 "),
    ({"probes": [{"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 0,
                  "sigma_range": [1e-300, 1e-300]}]},
     "probe 0 (gn): bump width 1e-300 "),
    # a probe's spec is resolved before any probe runs
    ({"probes": [{"kind": "classical_gn", "n": 2},
                 {"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 0,
                  "ordering": "bogus", "sigma_range": [0.25, 0.4]}]},
     "probe 1 (gn): unknown ordering kind 'bogus'"),
    ({"probes": [{"kind": "hodge", "n": 2, "k": 2, "ell": 2, "q": 0,
                  "ordering": "diagonal"}]},
     "probe 0 (hodge): diagonal ordering is defined for ell=1 only"),
    ({"probes": [{"kind": "gn_dilation", "n": 2, "k": 2, "ell": 3, "q": 0,
                  "sigma_range": [0.25, 0.4], "lams": [1.0]}]},
     "probe 0 (gn_dilation): ell=3 is not an admissible increment"),
    ({"probes": [{"kind": "classical_gn", "n": 1}]},
     "probe 0 (classical_gn): need n >= 2"),
    ({"probes": [{"kind": "classical_gn", "n": 2}, {"kind": "nope"}]},
     "probe 1: unknown probe kind 'nope'"),
    # each check a probe meets on its way runs before probe 0 does
    ({"probes": [{"kind": "classical_gn", "n": 2},
                 {"kind": "duality", "n": 2, "k": 1, "q": 1, "P": 48,
                  "sigma_range": [0.25, 0.4]}]},
     "probe 1 (duality): grid resolution must be a power of two"),
    ({"probes": [{"kind": "classical_gn", "n": 2},
                 {"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 5,
                  "sigma_range": [0.25, 0.4]}]},
     "probe 1 (gn): label degree 5 out of range 0..2"),
    ({"probes": [{"kind": "classical_gn", "n": 2},
                 {"kind": "hodge", "n": 2, "k": 3, "ell": 3, "q": 0}]},
     "probe 1 (hodge): spectral inversion implemented for ell = 1"),
    ({"probes": [{"kind": "classical_gn", "n": 2},
                 {"kind": "hodge", "n": 2, "k": 2, "ell": 1, "q": 3,
                  "ordering": "diagonal"}]},
     "probe 1 (hodge): output degree q + ell = 4 exceeds N = 3"),
    ({"probes": [{"kind": "classical_gn", "n": 2},
                 {"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 1,
                  "sigma_range": [0.25, 0.4]}]},
     "probe 1 (gn): degree q in {1, n-1} needs a side condition"),
    ({"probes": [{"kind": "classical_gn", "n": 2},
                 {"kind": "gn_dilation", "n": 3, "k": 1, "ell": 1, "q": 2,
                  "sigma_range": [0.25, 0.4], "lams": [1.0]}]},
     "probe 1 (gn_dilation): degree q in {1, n-1} needs a side condition"),
    ({"probes": [{"kind": "classical_gn", "n": 2},
                 {"kind": "duality", "n": 1, "k": 1, "q": 0,
                  "sigma_range": [0.25, 0.4]}]},
     "probe 1 (duality): need n >= 2"),
    # a hodge probe whose own q is past N fails at labels(), before the
    # q + ell check
    ({"probes": [{"kind": "classical_gn", "n": 2},
                 {"kind": "hodge", "n": 2, "k": 2, "ell": 1, "q": 4,
                  "ordering": "diagonal"}]},
     "probe 1 (hodge): label degree 4 out of range 0..3"),
    # it raised numpy's _ArrayMemoryError ("Unable to allocate 512. GiB")
    ({"probes": [{"kind": "classical_gn", "n": 2},
                 {"kind": "duality", "n": 3, "k": 1, "q": 1, "P": 4096,
                  "sigma_range": [0.25, 0.4]}]},
     "probe 1 (duality): a grid of P^n = 4096^3 nodes is above the limit "
     "of 2^22"),
])
def test_ineq_malformed_config_is_a_one_line_error(capsys, tmp_path, config,
                                                   message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["ineq", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("divcurl: error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_symbol_scan_rejects_samples_below_one(capsys, samples):
    code = main(["symbol", "2", "1", "1", "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("divcurl: error: samples must be at least 1, "
                            f"got {samples}\n")


def test_symbol_zero_denominator_is_a_one_line_error(capsys):
    code = main(["symbol", "2", "2", "1", "--xi", "1/0,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "divcurl: error: --xi 1/0,1: zero denominator\n"


def test_symbol_empty_xi_is_a_one_line_error(capsys):
    """--xi= names a frequency; an empty one is an error, not a scan."""
    code = main(["symbol", "2", "2", "1", "--xi="])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("divcurl: error: Invalid literal for Fraction: "
                            "''\n")


@pytest.mark.parametrize("argv", [
    ("verify", "--seed", "x"),
    ("verify", "--scope", "nothing"),
    ("laplacian", "2", "2", "1", "--ordering", "foo"),
    (),                                         # no subcommand
    ("increments", "2", "2", "--bogus"),        # unknown option
    ("verify", "--cases", ""),
    ("verify", "--cases", ";"),
    ("increments", "2", "2", "--out", ""),
    ("ineq", "--config", ""),
], ids=lambda argv: "-".join(argv) or "none")
def test_bad_input_is_a_one_line_error(capsys, argv):
    """Usage errors and empty --cases, --out or --config values stop with
    one stderr line and exit code 2; an empty value is not an absent one."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("divcurl: error: ")
    assert captured.err.count("\n") == 1


def test_failed_command_leaves_no_out_file(capsys, tmp_path):
    target = tmp_path / "tensor.json"
    code = main(["laplacian", "2", "2", "1", "--q", "9", "--out", str(target)])
    assert code == 2
    assert capsys.readouterr().err.startswith("divcurl: error: ")
    assert not target.exists()


def run_module(*argv):
    """python -m divcurl in a new process, on this checkout's src/."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "divcurl", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point():
    """python -m divcurl runs main and exits with its code."""
    assert run_module("--version").returncode == 0
    done = run_module("verify", "--scope", "symbol", "--format", "text")
    assert done.returncode == 0 and done.stdout
    done = run_module("symbol", "2", "2", "1", "--samples", "0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("divcurl: error: samples must be at least 1, "
                           "got 0\n")


def test_one_parser_serves_every_call(capsys):
    """main parses with one cached parser; calls with different options in
    one process each print what the same call prints in a new process."""
    base = ["laplacian", "3", "2", "2", "--q", "1"]
    argvs = [base + ["--source"], base, base + ["--format", "text"], base]
    outputs = [run_cli(capsys, *argv) for argv in argvs]
    assert build_parser() is build_parser()
    assert outputs[1] == outputs[3]
    assert len({out for _, out in outputs}) == 3
    for argv, (code, out) in zip(argvs, outputs):
        done = run_module(*argv)
        assert (done.returncode, done.stdout) == (code, out), argv
