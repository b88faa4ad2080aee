"""Command line: serialization, catalog emission, verdicts, CSV scans."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvop
from curvop import CurvatureOperator, identity_operator, verify
from curvop.cli import _CATALOG, _FLAG_OF, _write_rows, main
from curvop.opfile import dump_operator, dumps_operator, load_operator, loads_operator
from curvop.verify import random_sym_operator


def reference_write_rows(header, rows):
    """CSV text as the per-value join/format writer built it."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOperatorFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for n in (2, 4, 6):
            op = random_sym_operator(rng, n)
            path = tmp_path / f"op{n}.json"
            dump_operator(path, op, metadata={"note": "test"})
            back, doc = load_operator(path)
            assert np.array_equal(back.mat, op.mat)
            assert doc["basis"] == "lex-wedge"
            assert doc["metadata"]["note"] == "test"

    def test_negative_zero_survives(self):
        op = CurvatureOperator(2, np.array([[-0.0]]))
        back, _ = loads_operator(dumps_operator(op))
        assert math.copysign(1.0, back.mat[0, 0]) == -1.0

    def test_rejects_wrong_shape_and_basis(self):
        text = dumps_operator(identity_operator(3))
        doc = json.loads(text)
        doc["basis"] = "other"
        with pytest.raises(ValueError):
            loads_operator(json.dumps(doc))
        doc = json.loads(text)
        doc["n"] = 4
        with pytest.raises(ValueError):
            loads_operator(json.dumps(doc))

    def test_rejects_asymmetric(self):
        doc = {"n": 2, "basis": "lex-wedge", "matrix": [[1.0]]}
        loads_operator(json.dumps(doc))
        doc3 = {
            "n": 3,
            "basis": "lex-wedge",
            "matrix": [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        }
        with pytest.raises(ValueError):
            loads_operator(json.dumps(doc3))

    @pytest.mark.parametrize(
        "matrix",
        ["[[1.0], [2.0, 3.0]]", "[[1.0, 2.0, 3.0], [2.0, 3.0], [3.0]]", "[[1.0, 0.0, 0.0]]",
         "[1.0, 0.0, 0.0]", "1.0", "[[[1.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]], [[0.0], [0.0], [1.0]]]"],
        ids=["ragged-short", "ragged-triangle", "one-row", "flat", "scalar", "nested"],
    )
    def test_rejects_matrices_that_are_not_n_by_n_lists(self, matrix):
        text = f'{{"n": 3, "basis": "lex-wedge", "matrix": {matrix}}}'
        with pytest.raises(ValueError, match=r"the 'matrix' field must (be 3x3 for n=3|hold JSON numbers, got \[1.0\])"):
            loads_operator(text)

    @pytest.mark.parametrize(
        "entry, message",
        [('"1.5"', 'got "1.5"'), ("true", "got true"), ("1" + "0" * 400, "an integer too large for a float")],
        ids=["string", "bool", "huge-integer"],
    )
    def test_rejects_entries_that_are_not_json_numbers(self, entry, message):
        text = f'{{"n": 2, "basis": "lex-wedge", "matrix": [[{entry}]]}}'
        with pytest.raises(ValueError, match=f"the 'matrix' field .*{message}"):
            loads_operator(text)


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "exact-values", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["suite"] == "exact-values"
        assert doc[0]["failures"] == []

    def test_unknown_suite_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nosuch")
        assert code == 2
        assert "unknown suite" in err

    def test_deterministic_reports(self, capsys):
        args = ("verify", "--suite", "prop-1.1", "--trials", "40", "--seed", "7")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        doc1 = json.loads(out1)
        doc2 = json.loads(out2)
        for d in (doc1, doc2):
            for entry in d:
                entry.pop("wall-time")
        assert doc1 == doc2

    def test_failures_exit_one(self, capsys):
        # a negative tolerance fails every comparison it governs
        code, out, err = run(capsys, "verify", "--suite", "prop-1.1", "--trials", "2", "--tol", "-1")
        assert code == 1
        failures = json.loads(out)[0]["failures"]
        assert failures
        assert err == f"{len(failures)} failure(s) across 1 suite(s)\n"
        for failure in failures:
            assert set(failure) == {"inputs-digest", "lhs", "rhs", "tolerance"}
            assert failure["tolerance"] == -1.0

    def test_a_nan_failure_prints_every_report(self, capsys, monkeypatch):
        # JSON has no number for NaN, so a failure writes a non-finite side
        # as a string rather than ending the run with no report
        def nan_suite(stream, t):
            yield verify._closes(("nan",), math.nan, 0.0, t)

        monkeypatch.setitem(verify.SUITES, "exact-values", (nan_suite, 1, 0.0))
        code, out, _ = run(capsys, "verify", "--suite", "exact-values")
        assert code == 1
        [failure] = json.loads(out)[0]["failures"]
        assert (failure["lhs"], failure["rhs"]) == ("nan", 0.0)

    @pytest.mark.parametrize(
        "suite, trials, named, limit",
        [
            ("lemma-2.1-soundness", 2 ** 32 // 4 + 1, "lemma-2.1-soundness", 2 ** 32 // 4),
            ("all", 2 ** 32 // 4 + 1, "prop-1.1", 2 ** 32 // 6),
            ("all", 2 ** 32 // 6 + 1, "prop-1.1", 2 ** 32 // 6),
            ("prop-1.2", 2 ** 32 // 5 + 1, "prop-1.2", 2 ** 32 // 5),
            ("lemma-2.2", 2 ** 32 // 4 + 1, "lemma-2.2", 2 ** 32 // 4),
        ],
        ids=["lemma-2.1-four-dimensions", "all-past-four-dimensions", "all-six-dimensions", "five-dimensions",
             "four-dimensions"],
    )
    def test_trial_count_past_a_suite_limit_exits_two(self, capsys, monkeypatch, suite, trials, named, limit):
        # every selected suite's limit is checked before the first one runs
        monkeypatch.setattr("curvop.verify.run_suite", None)
        code, out, err = run(capsys, "verify", "--suite", suite, "--trials", str(trials))
        assert code == 2
        assert out == ""
        assert err == (f"usage error: --trials: {named} takes at most {limit} trials, "
                       f"the most its trial indices hold; got {trials}\n")


class TestCatalogCommand:
    def test_cp2_file(self, capsys, tmp_path):
        path = tmp_path / "cp2.json"
        code, _, _ = run(capsys, "catalog", "--name", "cp2", "--out", str(path))
        assert code == 0
        op, doc = load_operator(path)
        assert np.allclose(doc["metadata"]["eigenvalues"], [0, 0, 2, 2, 2, 6], atol=1e-12)

    def test_sphere_product_metadata(self, capsys, tmp_path):
        path = tmp_path / "sp.json"
        code, _, _ = run(
            capsys, "catalog", "--name", "sphere-product", "--p", "2", "--n", "5",
            "--out", str(path),
        )
        assert code == 0
        _, doc = load_operator(path)
        assert doc["metadata"]["hat_norm_sq"] == pytest.approx(12.0, abs=1e-12)

    def test_negative_term_entry(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        code, _, _ = run(
            capsys, "catalog", "--name", "example-4.7", "--n", "4", "--lambda", "1",
            "--out", str(path),
        )
        assert code == 0
        _, doc = load_operator(path)
        assert doc["metadata"]["curvature_term"] == pytest.approx(-8.0, rel=1e-12)
        assert "two_form" in doc["companions"]

    def test_singer_thorpe_entry(self, capsys, tmp_path):
        path = tmp_path / "st.json"
        code, _, _ = run(
            capsys, "catalog", "--name", "singer-thorpe", "--lambdas", "0,0,6,2,2,2",
            "--out", str(path),
        )
        assert code == 0
        _, doc = load_operator(path)
        assert doc["metadata"]["bianchi"] is True
        assert len(doc["companions"]["basis"]) == 6

    def test_remark_entry(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "catalog", "--name", "remark-3.6", "--n", "6", "--K", "1",
            "--K1n", "-3", "--out", str(path),
        )
        assert code == 0
        _, doc = load_operator(path)
        assert doc["metadata"]["curvature_term"] == pytest.approx(-8.0, rel=1e-12)

    def test_extremal_pform_entry(self, capsys, tmp_path):
        path = tmp_path / "ext.json"
        code, _, _ = run(capsys, "catalog", "--name", "extremal-pform", "--p", "3", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["n"] == 6
        assert sum(1 for c in doc["omega1"]["comps"] if c != 0) == 4
        assert sum(1 for c in doc["omega2"]["comps"] if c != 0) == 4

    def test_s2_products_entry(self, capsys, tmp_path):
        path = tmp_path / "s2.json"
        code, _, _ = run(capsys, "catalog", "--name", "s2-products", "--k", "2", "--n", "6", "--out", str(path))
        assert code == 0
        _, doc = load_operator(path)
        assert doc["metadata"]["hat_norm_sq"] == pytest.approx(32.0, abs=1e-12)

    def test_unknown_name_exits_two(self, capsys):
        code, _, err = run(capsys, "catalog", "--name", "nosuch")
        assert code == 2

    def test_missing_params_exit_two(self, capsys):
        code, _, err = run(capsys, "catalog", "--name", "sphere-product")
        assert code == 2
        assert "--" in err

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "catalog", "--name", "cp2")
        assert code == 0
        doc = json.loads(out)
        assert doc["basis"] == "lex-wedge"

    def test_exact_entries_print_exactly(self, capsys):
        code, out, _ = run(capsys, "catalog", "--name", "cp2")
        assert code == 0
        assert {v for row in json.loads(out)["matrix"] for v in row} == {-1.0, 0.0, 1.0, 2.0, 4.0}
        code, out, _ = run(capsys, "catalog", "--name", "example-4.7", "--n", "6", "--lambda", "2.5")
        assert code == 0
        assert '"curvature_term": -20.0,' in out


# a value of each catalog flag, by argument name, that every entry taking
# the flag accepts, as the command line spells it
CATALOG_FLAG_VALUES = {
    "n": ("--n", "4"), "p": ("--p", "2"), "k": ("--k", "1"), "lam": ("--lambda", "1"),
    "lambdas": ("--lambdas", "0,0,6,2,2,2"), "K": ("--K", "1"), "K1n": ("--K1n", "-1"),
}


class TestCatalogTable:
    def test_every_flag_has_a_value(self):
        assert {flag for flags, _ in _CATALOG.values() for flag in flags} == set(CATALOG_FLAG_VALUES)

    @pytest.mark.parametrize("name", list(_CATALOG))
    def test_row_takes_exactly_its_flags(self, capsys, name):
        flags = _CATALOG[name][0]

        def catalog(*names):
            return run(capsys, "catalog", "--name", name, *(x for f in names for x in CATALOG_FLAG_VALUES[f]))

        code, out, err = catalog(*flags)
        assert (code, err) == (0, "")
        json.loads(out)
        for dropped in flags:
            kept = [f for f in flags if f != dropped]
            assert catalog(*kept) == (
                2, "", f"usage error: catalog entry {name!r} needs --{_FLAG_OF.get(dropped, dropped)}\n")
        for other in CATALOG_FLAG_VALUES.keys() - set(flags):
            assert catalog(*flags, other) == (
                2, "", f"usage error: catalog entry {name!r} takes no --{_FLAG_OF.get(other, other)}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--name", "extremal-pform", "--p", "2", "--n", "8"), "catalog entry 'extremal-pform' takes no --n"),
            (("--name", "cp2", "--n", "9"), "catalog entry 'cp2' takes no --n"),
            (("--name", "cp2", "--K", "1", "--lambda", "2"), "catalog entry 'cp2' takes no --lambda, --K"),
            # the missing-flag check comes first
            (("--name", "sphere-product", "--p", "2", "--k", "1"), "catalog entry 'sphere-product' needs --n"),
        ],
    )
    def test_refused_flags(self, capsys, tmp_path, argv, message):
        path = tmp_path / "unused.json"
        assert run(capsys, "catalog", *argv, "--out", str(path)) == (2, "", f"usage error: {message}\n")
        assert not path.exists()


class TestSpectrumCommand:
    def test_prints_eigenvalues(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        dump_operator(path, identity_operator(4))
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["eigenvalues"] == [1.0] * 6

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "spectrum", "/nonexistent/file.json")
        assert code == 1

    @pytest.mark.parametrize("n", ["2.5", '"2"', "true"], ids=["float", "string", "bool"])
    def test_non_integer_dimension_exits_one(self, capsys, tmp_path, n):
        path = tmp_path / "op.json"
        path.write_text(f'{{"n": {n}, "basis": "lex-wedge", "matrix": [[1.0]]}}\n', encoding="utf-8")
        code, out, err = run(capsys, "spectrum", str(path))
        assert code == 1
        assert out == ""
        assert f"the 'n' field must be a JSON integer, got {n}" in err
        assert len(err.strip().splitlines()) == 1, err

    @pytest.mark.parametrize("command", [("spectrum",), ("bochner", "--kind", "weyl")])
    @pytest.mark.parametrize(
        "entry, message",
        [('"1.5"', 'must hold JSON numbers, got "1.5"'), ("true", "must hold JSON numbers, got true"),
         ("1" + "0" * 400, "holds an integer too large for a float")],
        ids=["string", "bool", "huge-integer"],
    )
    def test_entries_that_are_not_json_numbers_exit_one(self, capsys, tmp_path, command, entry, message):
        path = tmp_path / "op.json"
        path.write_text(f'{{"n": 2, "basis": "lex-wedge", "matrix": [[{entry}]]}}\n', encoding="utf-8")
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 1
        assert out == ""
        assert err == f"error: the 'matrix' field {message}\n"

    @pytest.mark.parametrize("command", [("spectrum",), ("bochner", "--kind", "weyl")])
    def test_ragged_matrix_exits_one(self, capsys, tmp_path, command):
        path = tmp_path / "ragged.json"
        path.write_text('{"n": 3, "basis": "lex-wedge", "matrix": [[1.0], [2.0, 3.0]]}\n', encoding="utf-8")
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 1
        assert out == ""
        assert err == "error: the 'matrix' field must be 3x3 for n=3: a list of 3 lists of 3 numbers\n"

    @pytest.mark.parametrize("command", [("spectrum",), ("bochner", "--kind", "weyl")])
    def test_entries_too_large_to_symmetrize_exit_one(self, capsys, tmp_path, command):
        # finite entries whose symmetric part overflowed were stored as inf
        # and then failed in Jacobi under a numpy warning
        huge = np.diag([1.7e308] * 6)
        huge[0, 1] = huge[1, 0] = 1e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 4, "basis": "lex-wedge", "matrix": huge.tolist()}), encoding="utf-8")
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 1
        assert out == ""
        assert err == ("error: operator matrix entries must be below 2**1023 in magnitude, "
                       "or their symmetric part overflows\n")


class TestBochnerCommand:
    def test_cp2_middle_degree(self, capsys, tmp_path):
        path = tmp_path / "cp2.json"
        run(capsys, "catalog", "--name", "cp2", "--out", str(path))
        code, out, _ = run(
            capsys, "bochner", str(path), "--kind", "pform", "--p", "2", "--kappa", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["vanishing"] is False
        assert doc["parallel_only"] is True
        assert doc["holds"] is True

    def test_identity_vanishes(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        dump_operator(path, identity_operator(4))
        code, out, _ = run(capsys, "bochner", str(path), "--kind", "pform", "--p", "1")
        assert code == 0
        assert json.loads(out)["vanishing"] is True

    def test_negative_term_not_vanishing(self, capsys, tmp_path):
        path = tmp_path / "neg5.json"
        run(capsys, "catalog", "--name", "example-4.7", "--n", "5", "--lambda", "1", "--out", str(path))
        code, out, _ = run(capsys, "bochner", str(path), "--kind", "pform", "--p", "2")
        assert code == 0
        assert json.loads(out)["vanishing"] is False

    def test_bound_value(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        dump_operator(path, identity_operator(4))
        code, out, _ = run(
            capsys, "bochner", str(path), "--kind", "pform", "--p", "2",
            "--kappa", "-1", "--diameter", "1", "--c-const", "1",
        )
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(6.0 * math.exp(2.0), rel=1e-12)

    def test_power_of_two_scaling_keeps_verdicts(self, capsys, tmp_path):
        # a positive scale cannot change a verdict, even where squares of
        # the entries overflow
        docs = []
        for scale in (1.0, 2.0 ** 540):
            path = tmp_path / "cp2.json"
            dump_operator(path, CurvatureOperator(4, scale * curvop.cp2_op().mat))
            code, out, _ = run(capsys, "bochner", str(path), "--kind", "pform", "--p", "2", "--kappa", "0")
            assert code == 0
            docs.append(json.loads(out))
        for key in ("vanishing", "parallel_only", "holds", "term_vanishing"):
            assert docs[1][key] is docs[0][key], key
        assert docs[1]["vanishing"] is False

    def test_bad_kind_exits_two(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        dump_operator(path, identity_operator(4))
        code, _, _ = run(capsys, "bochner", str(path), "--kind", "nosuch")
        assert code == 2

    def test_constants_of_the_other_kinds(self, capsys, tmp_path):
        path = tmp_path / "cp2.json"
        run(capsys, "catalog", "--name", "cp2", "--out", str(path))
        for kind, constant in (("sym2", 2.0), ("curvature-einstein", 1.5), ("weyl", 1.5)):
            code, out, _ = run(capsys, "bochner", str(path), "--kind", kind)
            assert code == 0, kind
            doc = json.loads(out)
            assert (doc["kind"], doc["C"], doc["floor_C"]) == (kind, constant, math.floor(constant))

    def test_curvature_kinds_need_dimension_three(self, capsys, tmp_path):
        path = tmp_path / "s2.json"
        run(capsys, "catalog", "--name", "sphere-product", "--p", "2", "--n", "2", "--out", str(path))
        for kind, name in (("weyl", "weyl"), ("curvature-einstein", "curvature_einstein")):
            code, out, err = run(capsys, "bochner", str(path), "--kind", kind)
            assert (code, out) == (2, ""), kind
            assert err == f"usage error: {name} tensors need dimension at least 3, got 2\n"


class TestWarpedCommand:
    def test_round_scan_all_ones(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        code, _, _ = run(
            capsys, "warped", "--p", "2", "--q", "2", "--amp", "0",
            "--samples", "50", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["r", "radial_p", "radial_q", "plane_p", "plane_q", "mixed"]
        assert header[6:] == ["low1", "low2", "low3", "low4", "low5"]
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert np.allclose(vals[1:6], 1.0, atol=1e-12)
            assert np.allclose(vals[6:], [1, 2, 3, 4, 5], atol=1e-12)

    def test_bump_drives_radial_negative(self, capsys, tmp_path):
        path = tmp_path / "bump.csv"
        code, _, _ = run(
            capsys, "warped", "--p", "2", "--q", "2", "--amp", "3", "--center", "0.8",
            "--width", "0.2", "--samples", "200", "--out", str(path),
        )
        assert code == 0
        radial = [
            float(line.split(",")[1]) for line in path.read_text().strip().splitlines()[1:]
        ]
        assert min(radial) < 0.0

    def test_lowest_sums_at_a_huge_factor(self, capsys, tmp_path):
        # the multiplicities grow with p^2, and no more than five of them
        # are expanded
        p, q = 10 ** 6, 2
        path = tmp_path / "huge.csv"
        code, _, err = run(capsys, "warped", "--p", str(p), "--q", str(q), "--samples", "3", "--out", str(path))
        assert code == 0, err
        mults = (p, q, p * (p - 1) // 2, q * (q - 1) // 2, p * q)
        for line in path.read_text().strip().splitlines()[1:]:
            vals = [float(v) for v in line.split(",")]
            lowest = sorted(v for v, m in zip(vals[1:6], mults) for _ in range(min(m, 5)))[:5]
            assert vals[6:] == list(np.cumsum(lowest))

    def test_huge_digit_count_factor_exits_without_traceback(self, capsys, tmp_path):
        path = tmp_path / "digits.csv"
        code, _, err = run(capsys, "warped", "--p", "9" * 400, "--q", "2", "--samples", "3", "--out", str(path))
        assert code == 0, err
        assert "Traceback" not in err
        assert len(path.read_text().strip().splitlines()) == 4

    def test_bad_support_exits_two(self, capsys):
        code, _, _ = run(
            capsys, "warped", "--p", "2", "--q", "2", "--amp", "1",
            "--center", "0.05", "--width", "0.2",
        )
        assert code == 2


class TestOdeCommand:
    def test_crossing_row_and_scal_column(self, capsys, tmp_path):
        path = tmp_path / "orbit.csv"
        code, _, err = run(
            capsys, "ode", "--n", "4", "--x0", "0.5", "--step", "1e-3", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        final = [float(v) for v in lines[-1].split(",")]
        assert final[1] > 1.0  # crossing radius
        assert abs(final[2]) <= 1e-10
        scal = [float(line.split(",")[3]) for line in lines[1:]]
        assert max(abs(s - 6.0) for s in scal) <= 1e-6

    def test_no_crossing_exits_one(self, capsys):
        code, _, err = run(capsys, "ode", "--n", "4", "--x0", "1.0", "--tmax", "0.5", "--step", "1e-3")
        assert code == 1
        assert "without a crossing" in err

    def test_bad_start_exits_two(self, capsys):
        code, _, _ = run(capsys, "ode", "--n", "4", "--x0", "5.0")
        assert code == 2

    def test_stdout_emission(self, capsys):
        code, out, _ = run(capsys, "ode", "--n", "4", "--x0", "0.7", "--step", "0.01")
        assert code == 0
        assert out.startswith("t,x,y,scal")


class TestPinnedBytes:
    # sha256 of CLI output whose every value is plain IEEE arithmetic on
    # diagonal or scalar inputs: a faster path must write the same bytes
    ODE_SHA256 = "366e503f5eee7a4befb767f7a420200ec3d493d2281a6b21d1743d2e0977ce9e"
    REMARK_SHA256 = "56aa8c0fcff6847c5f6e0e80eb71e35b0a92b3dc866f4800d2f1d95604150de9"

    def test_ode_csv(self, capsys, tmp_path):
        path = tmp_path / "orbit.csv"
        code, _, _ = run(capsys, "ode", "--n", "4", "--x0", "0.6", "--step", "1e-4", "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.ODE_SHA256

    def test_remark_catalog_files(self, capsys, tmp_path):
        # every file in order, n = 3..8 by K by K1n, hashed as one stream
        digest = hashlib.sha256()
        path = tmp_path / "remark.json"
        for n in range(3, 9):
            for K in (0.5, 1.0, 2.0):
                for K1n in (-0.5, -1.0, -2.0):
                    code, _, _ = run(
                        capsys, "catalog", "--name", "remark-3.6", "--n", str(n),
                        "--K", repr(K), "--K1n", repr(K1n), "--out", str(path),
                    )
                    assert code == 0
                    digest.update(path.read_bytes())
        assert digest.hexdigest() == self.REMARK_SHA256

    # the other six catalog entries on inputs whose hat norms and curvature
    # terms pair integer hat rows, so BLAS products are exact, and whose
    # spectra come from the elementwise Jacobi rotations, not from LAPACK
    CATALOG_ARGS = (
        [("--name", "sphere-product", "--p", str(p), "--n", str(n)) for n in (3, 5, 8) for p in (2, n)]
        + [("--name", "s2-products", "--k", str(k), "--n", str(n)) for k, n in ((1, 2), (2, 4), (2, 5), (4, 8))]
        + [("--name", "cp2")]
        + [("--name", "singer-thorpe", "--lambdas", lams) for lams in ("0,0,6,2,2,2", "1,2,3,3,2,1", "1,2,3,4,5,6")]
        + [("--name", "example-4.7", "--n", str(n), "--lambda", lam) for n in (4, 6, 8) for lam in ("0.5", "1")]
        + [("--name", "extremal-pform", "--p", str(p)) for p in (1, 2, 3, 4)]
    )
    CATALOG_SHA256 = "5e12e5fe47f3dce42340ee1e24adc8ac9659449801db680ae188d6b8249a7612"
    SPECTRUM_SHA256 = "5224e0cfd8c64f1a831fa4c6362e08f5c9920c01ea271334bc269f12b2109331"
    # every kind on four operator files, with and without --p and --kappa
    BOCHNER_FILES = (
        ("--name", "cp2"),
        ("--name", "sphere-product", "--p", "3", "--n", "5"),
        ("--name", "example-4.7", "--n", "6", "--lambda", "0.5"),
        ("--name", "singer-thorpe", "--lambdas", "1,2,3,3,2,1"),
    )
    BOCHNER_ARGS = (
        ("--kind", "pform", "--p", "2", "--kappa", "0"),
        ("--kind", "sym2", "--kappa", "-1"),
        ("--kind", "curvature-einstein", "--p", "1"),
        ("--kind", "weyl"),
    )
    BOCHNER_SHA256 = "7f37811932a0b6ce8fe827ab94391937a30b86fae178cb9c1b90832dfd8d3bf6"
    # the round profile: sines and cosines, no bump
    WARPED_SHA256 = "c9ba7ce4899783e1ec15abd95b0cfd5e9801da228dfe172e65d4e9032c6ba083"

    def test_other_catalog_files(self, capsys, tmp_path):
        digest = hashlib.sha256()
        path = tmp_path / "entry.json"
        for args in self.CATALOG_ARGS:
            code, _, _ = run(capsys, "catalog", *args, "--out", str(path))
            assert code == 0, args
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.CATALOG_SHA256

    def test_spectrum_of_catalog_files(self, capsys, monkeypatch, tmp_path):
        # the report names its file, so the file sits in the working directory
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for args in self.CATALOG_ARGS:
            if "extremal-pform" in args:
                continue
            assert run(capsys, "catalog", *args, "--out", "op.json")[0] == 0, args
            code, out, _ = run(capsys, "spectrum", "op.json")
            assert code == 0, args
            digest.update(out.encode())
        assert digest.hexdigest() == self.SPECTRUM_SHA256

    def test_bochner_every_kind(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for entry in self.BOCHNER_FILES:
            assert run(capsys, "catalog", *entry, "--out", "op.json")[0] == 0, entry
            for args in self.BOCHNER_ARGS:
                code, out, _ = run(capsys, "bochner", "op.json", *args)
                assert code == 0, (entry, args)
                digest.update(out.encode())
        assert digest.hexdigest() == self.BOCHNER_SHA256

    def test_warped_csv(self, capsys, tmp_path):
        path = tmp_path / "round.csv"
        code, _, _ = run(capsys, "warped", "--p", "2", "--q", "3", "--samples", "40", "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.WARPED_SHA256


class TestCsvRows:
    def test_template_matches_reference_bytes(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        special = [
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
            float("nan"), float("inf"), float("-inf"), 1, -7, 0, 2**53 + 1, 10**20,
            np.float64(0.1), np.float64(-0.0), np.float64(5e-324), np.float64(-np.inf),
            np.int64(3),
        ]
        spread = rng.standard_normal(400) * 10.0 ** rng.integers(-320, 300, 400)
        values = special + spread.tolist() + list(spread[:80])
        order = rng.permutation(len(values))
        header = ["a", "b", "c", "d", "e"]
        rows = [[values[i] for i in order[k:k + 5]] for k in range(0, len(values), 5)]
        want = reference_write_rows(header, rows)
        _write_rows(None, header, rows)
        assert capsys.readouterr().out == want
        path = tmp_path / "rows.csv"
        _write_rows(str(path), header, rows)
        assert path.read_bytes() == want.encode("utf-8")
        _write_rows(None, header, [])
        assert capsys.readouterr().out == reference_write_rows(header, [])


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert run(capsys, "verify", "--nope")[0] == 2

    @pytest.mark.parametrize(
        "env, argv, code, message",
        [
            ({}, ("verify", "--suite", "prop-1.1", "--trials", "-3"), 2, "--trials must be at least 1"),
            ({}, ("verify", "--suite", "prop-1.1", "--trials", "0"), 2, "--trials must be at least 1"),
            ({}, ("verify", "--suite", "prop-1.1", "--tol", "nan"), 2, "--tol must be finite"),
            ({}, ("verify", "--suite", "prop-1.1", "--tol", "inf"), 2, "--tol must be finite"),
            ({}, ("ode", "--n", "4", "--x0", "0.5", "--step", "0"), 2, "positive and finite"),
            ({}, ("ode", "--n", "4", "--x0", "0.5", "--step", "inf"), 2, "positive and finite"),
            ({}, ("ode", "--n", "4", "--x0", "0.5", "--tmax", "nan"), 2, "positive and finite"),
            ({}, ("catalog", "--name", "sphere-product", "--p", "2", "--n", "9"), 2, "exceeds the cap 8"),
            ({}, ("catalog", "--name", "sphere-product", "--p", "9", "--n", "4"), 2, "sphere dimension"),
            ({}, ("catalog", "--name", "extremal-pform", "--p", "9"), 2, "usage error"),
            ({}, ("warped", "--p", "2", "--q", "2", "--samples", "3", "--out", "/nonexistent/o.csv"), 1,
             "cannot write /nonexistent/o.csv"),
            ({}, ("ode", "--n", "4", "--x0", "0.5", "--step", "1e-2", "--out", "/nonexistent/o.csv"), 1,
             "cannot write /nonexistent/o.csv"),
            ({}, ("catalog", "--name", "cp2", "--out", "/nonexistent/o.json"), 1,
             "cannot write /nonexistent/o.json"),
            ({}, ("catalog", "--name", "extremal-pform", "--p", "2", "--out", "/nonexistent/o.json"), 1,
             "cannot write /nonexistent/o.json"),
            ({}, ("verify", "--suite", "prop-1.1", "--seed", "-1"), 2,
             "usage error: --seed must be a non-negative integer"),
            ({}, ("verify", "--suite", "prop-1.1", "--trials", str(2 ** 32 + 1)), 2,
             "--trials must be at most 2**32"),
            ({}, ("warped", "--p", "2", "--q", "2", "--amp", "nan"), 2, "amp must be finite"),
            ({}, ("warped", "--p", "2", "--q", "2", "--amp", "inf"), 2, "amp must be finite"),
            ({}, ("warped", "--p", "2", "--q", "2", "--center", "nan"), 2, "bump support"),
            ({}, ("warped", "--p", "2", "--q", "2", "--width", "nan"), 2, "width must be positive"),
            ({}, ("warped", "--p", "1", "--q", "2"), 2, "usage error: both sphere factors"),
            ({}, ("ode", "--n", "4", "--x0", "nan"), 2, "x0 must be positive"),
            ({}, ("bochner", "cp2.json", "--kind", "pform", "--p", "2", "--kappa", "nan"), 2,
             "kappa must be finite and nonpositive"),
            ({}, ("bochner", "cp2.json", "--kind", "pform", "--p", "2", "--kappa=-inf"), 2,
             "kappa must be finite and nonpositive"),
            ({}, ("bochner", "cp2.json", "--kind", "pform", "--p", "2", "--kappa=-1", "--diameter", "nan",
                  "--c-const", "1"), 2, "diameter must be positive and finite"),
            ({}, ("bochner", "cp2.json", "--kind", "pform", "--p", "2", "--kappa=-1", "--diameter", "1",
                  "--c-const", "nan"), 2, "the constant must be positive and finite"),
            ({}, ("bochner", "cp2.json", "--kind", "pform", "--p", "2", "--kappa=-1", "--diameter", "inf",
                  "--c-const", "1"), 2, "diameter must be positive and finite"),
            ({}, ("bochner", "cp2.json", "--kind", "pform", "--p", "2", "--kappa=-1", "--diameter", "1",
                  "--c-const", "1e300"), 2, "the bound exceeds the float range"),
            ({}, ("catalog", "--name", "example-4.7", "--n", "4", "--lambda", "inf"), 2,
             "the scale must be positive and finite"),
            ({}, ("catalog", "--name", "singer-thorpe", "--lambdas", "1,2,3,4,5,inf"), 2,
             "eigenvalues must be finite"),
            ({}, ("warped", "--p", "2", "--q", "2", "--amp", "1e200", "--samples", "3"), 2,
             "exceed the float range"),
            ({}, ("ode", "--n", "4", "--x0", "0.5", "--step", "1e-300", "--tmax", "1e300"), 2,
             "t_max / step must be finite"),
            ({}, ("ode", "--n", "4", "--x0", "0.5", "--step", "1e-12", "--tmax", "20"), 2,
             "t_max / step must be finite and at most 1000000"),
            ({}, ("warped", "--p", "2", "--q", "2", "--samples", "10000000"), 2,
             "samples must be between 1 and 100000"),
            ({}, ("catalog", "--name", "singer-thorpe"), 2,
             "usage error: catalog entry 'singer-thorpe' needs --lambdas l1,..,l6"),
            ({}, ("bochner", "cp2.json", "--kind", "sym2", "--kappa=-1", "--diameter", "1", "--c-const", "1"), 2,
             "usage error: the bound needs --p"),
            ({}, ("catalog", "--name", "example-4.7", "--n", "5", "--lambda", "1e308"), 2,
             "usage error: the scale must keep 2n*lam below 2**1023, got lam=1e+308 at n=5"),
            ({}, ("ode", "--n", "9" * 400, "--x0", "0.5"), 2,
             "usage error: dimension must keep (n-2)/2 a finite float, got 999"),
            ({}, ("bochner", "cp2.json", "--kind", "sym2", "--p", "2", "--kappa", "0", "--diameter", "1"), 2,
             "usage error: the bound needs --c-const"),
            ({}, ("bochner", "cp2.json", "--kind", "sym2", "--c-const", "1"), 2,
             "usage error: the bound needs --p, --kappa, --diameter"),
            ({}, ("bochner", "missing.json", "--kind", "bogus"), 2, "usage error: unknown kind 'bogus'"),
            ({}, ("bochner", "missing.json", "--kind", "sym2", "--diameter", "1"), 2,
             "usage error: the bound needs --p, --kappa, --c-const"),
        ],
    )
    def test_bad_input_exits_without_traceback(self, capsys, monkeypatch, tmp_path, env, argv, code, message):
        dump_operator(tmp_path / "cp2.json", curvop.cp2_op())
        monkeypatch.chdir(tmp_path)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        got, _, err = run(capsys, *argv)
        assert got == code, err
        assert message in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1, err

    # every float flag, in a command that reads it
    FLOAT_FLAGS = {
        "--tol": ("verify", "--suite", "exact-values"),
        "--lambda": ("catalog", "--name", "example-4.7", "--n", "6"),
        "--K": ("catalog", "--name", "remark-3.6", "--n", "4", "--K1n", "1"),
        "--K1n": ("catalog", "--name", "remark-3.6", "--n", "4", "--K", "1"),
        "--kappa": ("bochner", "cp2.json", "--kind", "pform", "--p", "2"),
        "--diameter": ("bochner", "cp2.json", "--kind", "pform", "--p", "2", "--kappa=-1", "--c-const", "1"),
        "--c-const": ("bochner", "cp2.json", "--kind", "pform", "--p", "2", "--kappa=-1", "--diameter", "1"),
        "--amp": ("warped", "--p", "2", "--q", "2", "--samples", "3"),
        "--center": ("warped", "--p", "2", "--q", "2", "--samples", "3"),
        "--width": ("warped", "--p", "2", "--q", "2", "--samples", "3"),
        "--x0": ("ode", "--n", "4", "--step", "1e-2", "--tmax", "1"),
        "--step": ("ode", "--n", "4", "--x0", "0.5", "--tmax", "1"),
        "--tmax": ("ode", "--n", "4", "--x0", "0.5", "--step", "1e-2"),
    }

    def test_float_flags_are_listed(self):
        from curvop.cli import build_parser

        (commands,) = [action.choices for action in build_parser()._actions if action.choices]
        flags = {flag for parser in commands.values() for action in parser._actions
                 if action.type is float for flag in action.option_strings}
        assert flags == set(self.FLOAT_FLAGS)

    @pytest.mark.parametrize("flag", list(FLOAT_FLAGS))
    def test_negative_exponent_values_reach_every_float_flag(self, capsys, monkeypatch, tmp_path, flag):
        # argparse (Python 3.10 to 3.13) takes -1e-3 for an option, where
        # --flag=-1e-3 and --flag -0.001 pass
        dump_operator(tmp_path / "cp2.json", curvop.cp2_op())
        monkeypatch.chdir(tmp_path)

        def outcome(*value):
            code, out, err = run(capsys, *self.FLOAT_FLAGS[flag], *value)
            return code, re.sub(r'"wall-time": [^,}]*', "", out), err

        want = outcome(f"{flag}=-1e-3")
        assert "expected one argument" not in want[2]
        assert outcome(flag, "-1e-3") == want
        assert outcome(flag, "-2E+0") == outcome(f"{flag}=-2E+0")

    @pytest.mark.parametrize(
        "statement, unloaded",
        [
            ("import curvop", "every submodule"),
            ("import curvop.cli", ("action", "bochner", "catalog", "verify", "warped")),
            ("from curvop.cli import main; assert main(['spectrum', {op!r}]) == 0",
             ("action", "bochner", "catalog", "verify", "warped")),
            ("from curvop.cli import main; "
             "assert main(['ode', '--n', '4', '--x0', '0.5', '--step', '1e-2', '--out', {csv!r}]) == 0",
             ("catalog", "verify")),
            ("from curvop.cli import main; "
             "assert main(['catalog', '--name', 'remark-3.6', '--n', '4', '--K', '1', '--K1n', '-1', "
             "'--out', {json!r}]) == 0",
             ("verify", "warped")),
        ],
        ids=["import-curvop", "import-cli", "spectrum", "ode", "remark-3.6"],
    )
    def test_import_footprint(self, tmp_path, statement, unloaded):
        # a cold start compiles every module it imports, so each command
        # loads only its own; the package needs no scipy at all
        package = Path(curvop.__file__).resolve().parent
        if unloaded == "every submodule":
            unloaded = [p.stem for p in package.glob("*.py") if not p.stem.startswith("__")]
        op_path = tmp_path / "id.json"
        dump_operator(op_path, identity_operator(4))
        statement = statement.format(
            op=str(op_path), csv=str(tmp_path / "o.csv"), json=str(tmp_path / "r.json")
        )
        code = (
            f"{statement}\nimport json, sys\n"
            "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('curvop.'))))"
        )
        env = dict(os.environ, PYTHONPATH=str(package.parent))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stdout.splitlines()[-1]))
        assert "scipy" not in loaded
        assert not loaded & {f"curvop.{name}" for name in unloaded}, sorted(loaded)
