import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from attokit.blaschke import monomial
from attokit.cli import main
from attokit.instances import (member_matrix, perturbed_nonmember,
                               shared_clark_instance)
from attokit.membership import clark_pairing
from attokit.operators import IDENTITY_SYMBOL, SymbolSpec, compressed_shift
from attokit.instances import random_symbol


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClark:
    def test_monomial_points(self, capsys):
        code, out, _ = run_cli(capsys, "clark", "--alpha", "z2", "--lambda", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"]["points"] == [[1.0, 0.0], [-1.0, 0.0]]
        assert doc["alpha"]["weights"] == [2.0, 2.0]

    def test_degree_three_from_file(self, capsys, tmp_path, rng):
        from attokit.instances import random_blaschke
        b = random_blaschke(rng, 3)
        path = tmp_path / "b.json"
        path.write_text(json.dumps(b.to_json()))
        code, out, _ = run_cli(capsys, "clark", "--alpha", str(path), "--lambda", "i")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["alpha"]["points"]) == 3

    def test_usage_error_on_bad_lambda(self, capsys):
        code, _, err = run_cli(capsys, "clark", "--alpha", "z2", "--lambda", "0.5")
        assert code == 2
        assert "error" in err


class TestAttoAndShift:
    def test_shift_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "shift", "--alpha", "z3")
        assert code == 0
        doc = json.loads(out)
        entries = np.array([[complex(re, im) for re, im in row]
                            for row in doc["entries"]])
        assert np.allclose(entries, np.diag([1.0, 1.0], -1), atol=1e-12)

    def test_atto_toeplitz_golden(self, capsys, tmp_path):
        sym = {"raw": {"num": [[0.0, 0.0], [1.0, 0.0]], "den": [[1.0, 0.0]]}}
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(sym))
        code, out, _ = run_cli(capsys, "atto", "--alpha", "z2", "--beta", "z2",
                               "--symbol", str(path))
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(np.array(doc["entries"]),
                           [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], atol=1e-12)

    def test_unitary(self, capsys):
        code, out, _ = run_cli(capsys, "unitary", "--alpha", "z2", "--lambda", "1")
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(np.array(doc["entries"]),
                           [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], atol=1e-12)


class TestMembership:
    @pytest.fixture
    def instance(self, rng, tmp_path):
        alpha, beta, lam1, lam2 = shared_clark_instance(rng, 3, 2, 0)
        pairing = clark_pairing(alpha, beta, lam1, lam2)
        member = member_matrix(rng, alpha, beta, lam1, lam2)
        bad = perturbed_nonmember(rng, member, pairing)
        mpath = tmp_path / "member.json"
        bpath = tmp_path / "bad.json"
        mpath.write_text(json.dumps(member.to_json()))
        bpath.write_text(json.dumps(bad.to_json()))
        return mpath, bpath

    def test_member_exit_zero_all_methods(self, capsys, instance):
        mpath, _ = instance
        code, out, _ = run_cli(capsys, "membership", "--matrix", str(mpath))
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is True
        assert len(doc["methods"]) >= 4

    def test_nonmember_exit_three(self, capsys, instance):
        _, bpath = instance
        code, out, _ = run_cli(capsys, "membership", "--matrix", str(bpath))
        assert code == 3
        assert json.loads(out)["member"] is False

    def test_single_methods(self, capsys, instance):
        mpath, bpath = instance
        for method in ("clark", "residual", "conjugate", "shift"):
            code, out, _ = run_cli(capsys, "membership", "--matrix", str(mpath),
                                   "--method", method)
            assert code == 0, method
            code, _, _ = run_cli(capsys, "membership", "--matrix", str(bpath),
                                 "--method", method)
            assert code == 3, method

    def test_indeterminate_exit_four(self, capsys, rng, tmp_path):
        import attokit.operators as ops
        alpha, beta, lam1, lam2 = shared_clark_instance(rng, 3, 2, 0)
        pairing = clark_pairing(alpha, beta, lam1, lam2)
        member = member_matrix(rng, alpha, beta, lam1, lam2)
        shady = perturbed_nonmember(rng, member, pairing, delta=3e-6)
        path = tmp_path / "shady.json"
        path.write_text(json.dumps(shady.to_json()))
        code, _, err = run_cli(capsys, "membership", "--matrix", str(path),
                               "--method", "clark")
        assert code == 4
        assert "indeterminate" in err

    def test_clark_matrix_solves_each_boundary_once(self, capsys, instance, monkeypatch):
        # the Clark bases are rebuilt from the file (one solve per space);
        # the pairing reuses their point sets
        import attokit.modelspace
        boundary_solve = attokit.modelspace.boundary_solve
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return boundary_solve(*args, **kwargs)

        monkeypatch.setattr(attokit.modelspace, "boundary_solve", counting)
        mpath, _ = instance
        for method in ("all", "clark"):
            calls.clear()
            code, _, _ = run_cli(capsys, "membership", "--matrix", str(mpath),
                                 "--method", method)
            assert code == 0
            assert len(calls) == 2

    def test_disagreement_exit_four(self, capsys, instance, monkeypatch):
        import attokit.membership
        shift = attokit.membership.test_shift_invariance
        monkeypatch.setattr(attokit.membership, "test_shift_invariance", lambda matrix, tol: (
            dataclasses.replace(shift(matrix, tol), is_member=False)))
        mpath, _ = instance
        code, _, err = run_cli(capsys, "membership", "--matrix", str(mpath))
        assert code == 4
        assert "indeterminate: membership methods disagree" in err

    def test_lone_clark_dissent_exit_four_with_its_cause(self, capsys, rng, tmp_path):
        from test_membership import nearly_free_bump
        _, _, bumped = nearly_free_bump(rng)
        path = tmp_path / "bumped.json"
        path.write_text(json.dumps(bumped.to_json()))
        code, out, err = run_cli(capsys, "membership", "--matrix", str(path))
        assert code == 4 and out == ""
        assert err.startswith("indeterminate: clark-recurrence alone rejects")
        assert "|w| = 3.0e-05" in err and "division-free residual" in err

    def test_missing_file_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "membership", "--matrix", "/nonexistent.json")
        assert code == 2


class TestRankoneAndDim:
    def test_example_4_1_flag(self, capsys):
        code, out, _ = run_cli(capsys, "rankone", "--example-4-1", "--a", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["decomposition"]["tag"] == "nonstandard"
        kern = doc["candidates"]["kernel"]
        assert kern[0][0] == pytest.approx(2.0 / 7.0, abs=1e-12)
        assert kern[1][0] == pytest.approx(2.0 / 9.0, abs=1e-12)
        conj = doc["candidates"]["conj-kernel"]
        assert conj[0][0] == pytest.approx(3.5, abs=1e-12)
        assert conj[1][0] == pytest.approx(4.5, abs=1e-12)

    def test_standard_round_trip_via_file(self, capsys, rng, tmp_path):
        from attokit.operators import standard_rank_one
        alpha, beta, *_ = shared_clark_instance(rng, 3, 2, 0)
        mat = standard_rank_one(alpha, beta, 0.3 + 0.1j, "kernel-conjk")
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(mat.to_json()))
        code, out, _ = run_cli(capsys, "rankone", "--matrix", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["tag"] == "standard"
        assert doc["variant"] == "kernel-conjk"
        assert abs(complex(*doc["w"]) - (0.3 + 0.1j)) <= 1e-8

    def test_rank_two_input_is_error(self, capsys, rng, tmp_path):
        from attokit.operators import standard_rank_one, OperatorMatrix
        from attokit.modelspace import build_basis
        alpha, beta, *_ = shared_clark_instance(rng, 3, 2, 0)
        two = standard_rank_one(alpha, beta, 0.1, "kernel-conjk").entries \
            + standard_rank_one(alpha, beta, 0.6j, "kernel-conjk").entries
        mat = OperatorMatrix(two, build_basis(alpha, "tm"), build_basis(beta, "tm"))
        path = tmp_path / "two.json"
        path.write_text(json.dumps(mat.to_json()))
        code, _, err = run_cli(capsys, "rankone", "--matrix", str(path))
        assert code == 2

    def test_dim_values(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--alpha", "z3", "--beta", "z2")
        assert code == 0 and json.loads(out)["dim"] == 4
        code, out, _ = run_cli(capsys, "dim", "--alpha", "zn:1", "--beta", "z3")
        doc = json.loads(out)
        assert code == 0 and doc["dim"] == 3 and "T = L" in doc["note"]
        code, out, _ = run_cli(capsys, "dim", "--alpha", "z1", "--beta", "z1")
        assert code == 0 and json.loads(out)["dim"] == 1


class TestExampleCommand:
    def test_full_report(self, capsys):
        code, out, _ = run_cli(capsys, "example-4-1", "--a", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is True
        assert doc["decomposition"]["tag"] == "nonstandard"


class TestSelftest:
    def test_runs_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "7", "--trials", "50")
        assert code == 0
        doc = json.loads(out)
        assert doc["membership_agreement"] is True
        assert doc["dimension_3_2"] == 4

    def test_byte_identical_reruns(self):
        cmd = [sys.executable, "-m", "attokit.cli", "selftest", "--seed", "42",
               "--trials", "60"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert len(first.stdout) > 0


class TestDeterminism:
    def test_repeat_runs_bytewise_identical(self, capsys, rng, tmp_path):
        alpha, beta, lam1, lam2 = shared_clark_instance(rng, 3, 2, 1)
        mat = member_matrix(rng, alpha, beta, lam1, lam2)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(mat.to_json()))
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "membership", "--matrix", str(path))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        for _ in range(2):
            code, out, _ = run_cli(capsys, "dim", "--alpha", "z4", "--beta", "z3")
            assert code == 0
            outs.append(out)
        assert outs[2] == outs[3]


class TestConfig:
    def test_config_file_with_overrides(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        for lam in ([1.0, 0.0], 1):
            cfg = {"alpha": "z2", "lambda1": lam,
                   "tolerances": {"residual": 1e-9}, "seed": 3}
            path.write_text(json.dumps(cfg))
            code, out, _ = run_cli(capsys, "clark", "--config", str(path))
            assert code == 0
            assert json.loads(out)["alpha"]["points"] == [[1.0, 0.0], [-1.0, 0.0]]

    def test_bad_tolerance_rejected(self, capsys, tmp_path):
        # json writes nan and inf as NaN and Infinity, which json.load accepts
        path = tmp_path / "cfg.json"
        for tolerances, argv in (
                ({"residual": -1}, ("clark", "--alpha", "z2", "--lambda", "1")),
                ({"decision": float("nan")}, ("example-4-1",)),
                ({"decision": "nan"}, ("example-4-1",)),
                ({"decision": [1e-7]}, ("example-4-1",)),
                ({"rank": True}, ("example-4-1",)),
                ({"reject_band": float("inf")}, ("selftest",)),
                ({"decision": 1e-3}, ("example-4-1",)),
                ({"decision": 1e-5, "reject_band": 1e-5}, ("selftest",))):
            path.write_text(json.dumps({"tolerances": tolerances}))
            code, _, err = run_cli(capsys, *argv, "--config", str(path))
            assert code == 2 and "tolerance" in err, tolerances

    def test_malformed_values_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        for cfg, argv in (
                ({"alpha": [0.5, 0.0]}, ("clark", "--lambda", "1")),
                ({"alpha": {"zeros": 3, "front": [1, 0]}}, ("clark", "--lambda", "1")),
                ({"alpha": {"zeros": [[0.5, 0.0]], "front": [True, 0]}},
                 ("clark", "--lambda", "1")),
                ({"lambda1": [1]}, ("clark", "--alpha", "z2")),
                ({"lambda1": True}, ("clark", "--alpha", "z2")),
                ({"lambda1": {"re": 1}}, ("clark", "--alpha", "z2")),
                ({"tolerances": [1e-8]}, ("example-4-1",)),
                ([1], ("example-4-1",)),
                ({"seed": [1]}, ("selftest", "--trials", "1")),
                ({"seed": True}, ("selftest", "--trials", "1")),
                ({"seed": 1.0}, ("selftest", "--trials", "1"))):
            path.write_text(json.dumps(cfg))
            code, out, err = run_cli(capsys, *argv, "--config", str(path))
            assert code == 2 and out == "" and err.startswith("error:"), cfg
        good = compressed_shift(monomial(2)).to_json()
        for doc in ([1], "z2", {**good, "alpha": "z2"}, {**good, "beta": [1]},
                    {**good, "in_basis": "tm"}):
            path.write_text(json.dumps(doc))
            for command in ("membership", "rankone"):
                code, out, err = run_cli(capsys, command, "--matrix", str(path))
                assert code == 2 and out == "" and err.startswith("error:"), (command, doc)
        for doc in ([1], {"co_analytic": "z2"}, {"raw": [1]}):
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "atto", "--alpha", "z2", "--beta", "z2",
                                     "--symbol", str(path))
            assert code == 2 and out == "" and err.startswith("error:"), doc
        for argv in (("clark", "--alpha", "z2", "--lambda", "[1]"),
                     ("clark", "--alpha", "z2", "--lambda", "[1, true]"),
                     ("clark", "--alpha", '{"zeros": 3, "front": [1, 0]}', "--lambda", "1")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error:"), argv


class TestTypedNumericalFailures:
    """A tolerance the computation cannot meet exits 4 with one stderr line."""

    @staticmethod
    def run_with(capsys, tmp_path, tolerances, *argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tolerances": tolerances}))
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 4 and out == "" and err.count("\n") == 1
        assert err.startswith("indeterminate: ")
        return err

    def test_root_collision(self, capsys, tmp_path):
        err = self.run_with(capsys, tmp_path, {"distinct": 1.9},
                            "clark", "--alpha", "z3", "--lambda", "1")
        assert "two boundary points lie within 1.9" in err

    def test_boundary_residual(self, capsys, tmp_path):
        alpha = '{"front": [1.0, 0.0], "zeros": [[0.5, 0.1], [0.2, -0.3]]}'
        err = self.run_with(capsys, tmp_path, {"residual": 1e-30},
                            "clark", "--alpha", alpha, "--lambda", "1")
        assert "boundary points miss the target by more than 1e-30" in err

    def test_quadrature(self, capsys, tmp_path):
        symbol = tmp_path / "symbol.json"
        symbol.write_text(json.dumps(SymbolSpec(raw=IDENTITY_SYMBOL).to_json()))
        err = self.run_with(capsys, tmp_path, {"quadrature": 1e-30},
                            "atto", "--alpha", "z3", "--beta", "z2", "--symbol", str(symbol))
        assert "circle quadrature did not converge below 1e-30" in err
