"""Command-line behaviour: outputs, determinism and exit codes."""

import json
from dataclasses import asdict, fields

import pytest

from qmu.cli import main
from qmu.game import EstimateResult
from qmu.oracle import CheckFailure, InstanceRecord, crosscheck


@pytest.fixture(scope="module")
def vardi_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("vardi")
    assert main(["example", "vardi", "--out", str(out)]) == 0
    return {
        "model": str(out / "vardi.model.json"),
        "formula": str(out / "vardi.game.formula.txt"),
        "dir": str(out),
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        (["eval"], "error: qmu eval: the following arguments are required: "
                   "model, formula\n"),
        (["crosscheck", "--count", "x"],
         "error: qmu crosscheck: argument --count: invalid int value: 'x'\n"),
    ], ids=["missing-arguments", "bad-int"])
    def test_usage_error_exits_one_with_one_line(self, capsys, argv, message):
        # argparse alone exits 2, the code for non-convergence, after a usage
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err == message

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qmu eval")

    def test_all_states_flag_is_gone(self, capsys, vardi_files):
        code, _, err = run(capsys, ["eval", vardi_files["model"],
                                    vardi_files["formula"], "--all-states"])
        assert code == 1
        assert err == "error: qmu: unrecognized arguments: --all-states\n"


class TestEval:
    def test_eval_prints_values(self, capsys, vardi_files):
        code, out, _ = run(capsys, ["eval", vardi_files["model"],
                                    vardi_files["formula"]])
        assert code == 0
        assert "A 0.500000" in out and "B 0.500000" in out

    def test_inline_formula_and_state_flag(self, capsys, vardi_files):
        code, out, _ = run(capsys, ["eval", vardi_files["model"],
                                    "mu X . <k> atB \\/ <k> X", "--state", "A"])
        assert code == 0
        assert out.splitlines()[0] == "A 0.500000"

    def test_json_output(self, capsys, vardi_files):
        code, out, _ = run(capsys, ["eval", vardi_files["model"],
                                    vardi_files["formula"], "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["values"]["A"] == pytest.approx(0.5, abs=1e-8)
        (stats,) = payload["fixpoints"].values()
        assert stats["solves"] == 1
        assert stats["total_iterations"] == stats["iterations"] > 1

    def test_json_reports_the_states_the_support_pass_decided(self, capsys,
                                                              vardi_files):
        # atB fails at A and every step from B leads to A: the greatest
        # fixpoint is 0 at both states, decided before any iteration
        code, out, _ = run(capsys, ["eval", vardi_files["model"],
                                    "nu Y . atB /\\ <k> Y", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == {"A": 0.0, "B": 0.0}
        assert payload["fixpoints"] == {"Y": {
            "iterations": 1, "residual": 0.0, "converged": True, "solves": 1,
            "total_iterations": 1, "decided": 2}}
        # a formula without nu never runs the pass
        code, out, _ = run(capsys, ["eval", vardi_files["model"],
                                    vardi_files["formula"], "--json"])
        (stats,) = json.loads(out)["fixpoints"].values()
        assert stats["decided"] == 0

    def test_missing_symbol_exits_one(self, capsys, vardi_files):
        code, _, err = run(capsys, ["eval", vardi_files["model"],
                                    "mu X . <k> missing \\/ X"])
        assert code == 1
        assert "missing" in err

    def test_unreadable_model_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, err = run(capsys, ["eval", str(bad), "atB"])
        assert code == 1 and err

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(transitions=[]),
        lambda d: d["transitions"]["k"].__setitem__(0, [1]),
        lambda d: d["transitions"]["k"][0].update(payoff_weight=float("nan")),
        lambda d: d["transitions"]["k"][0]["to"][0].__setitem__(0, 1.7),
    ], ids=["transitions-not-object", "row-not-object", "nan-weight",
            "fractional-target"])
    def test_malformed_model_exits_one(self, capsys, vardi_files, tmp_path, edit):
        with open(vardi_files["model"]) as fh:
            data = json.load(fh)
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, ["eval", str(bad), "atB"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "malformed model file" in err

    def test_model_nested_too_deeply_exits_one(self, capsys, tmp_path):
        # the decoder's RecursionError used to escape as a traceback
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = run(capsys, ["eval", str(deep), "mu X . X"])
        assert code == 1 and out == ""
        assert err == f"error: {deep}: invalid JSON: nested too deeply\n"

    def test_model_not_utf8_exits_one(self, capsys, vardi_files, tmp_path):
        # JSON is UTF-8 whatever the locale; the decode error names the file
        bad = tmp_path / "latin.model.json"
        with open(vardi_files["model"], "rb") as fh:
            bad.write_bytes(b"\xff" + fh.read())
        code, out, err = run(capsys, ["eval", str(bad), vardi_files["formula"]])
        assert code == 1 and out == ""
        assert err == (f"error: {bad}: invalid JSON: 'utf-8' codec can't decode "
                       "byte 0xff in position 0: invalid start byte\n")

    def test_formula_file_not_utf8_exits_one(self, capsys, vardi_files,
                                             tmp_path):
        bad = tmp_path / "latin.formula.txt"
        bad.write_bytes(b"\xffmu X . atB \\/ <k> X")
        code, out, err = run(capsys, ["eval", vardi_files["model"], str(bad)])
        assert code == 1 and out == ""
        assert err == (f"error: {bad}: formula is not UTF-8: 'utf-8' codec "
                       "can't decode byte 0xff in position 0: invalid start "
                       "byte\n")

    def test_tolerance_flag_consistency(self, capsys, vardi_files):
        _, coarse, _ = run(capsys, ["eval", vardi_files["model"],
                                    vardi_files["formula"], "--state", "A",
                                    "--tol", "1e-3"])
        _, fine, _ = run(capsys, ["eval", vardi_files["model"],
                                  vardi_files["formula"], "--state", "A",
                                  "--tol", "1e-9"])
        a = float(coarse.split()[1])
        b = float(fine.split()[1])
        assert abs(a - b) <= 1e-2

    def test_non_convergence_exits_two(self, capsys, vardi_files):
        code, _, _ = run(capsys, ["eval", vardi_files["model"],
                                  vardi_files["formula"], "--max-iters", "1"])
        assert code == 2

    def test_infinite_tolerance_exits_one(self, capsys, vardi_files):
        code, out, err = run(capsys, ["eval", vardi_files["model"],
                                      "mu X . atB \\/ <k> X", "--tol", "inf"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_fix_formula_evaluates(self, capsys, vardi_files):
        code, out, _ = run(capsys, ["eval", vardi_files["model"],
                                    "fix(0.25) X . <k> X", "--state", "B"])
        assert code == 0
        assert out.splitlines()[0] == "B 0.250000"

    @pytest.mark.parametrize("text, values", [
        # k's stationary distribution puts 1/3 on B
        ("<k> " * 10_000 + "atB", ["A 0.333333", "B 0.333333"]),
        ("(" * 10_000 + "atB" + ")" * 10_000, ["A 0.000000", "B 1.000000"]),
    ], ids=["modal chain", "parentheses"])
    def test_deeply_nested_formula_evaluates(self, capsys, vardi_files, text,
                                             values):
        code, out, err = run(capsys, ["eval", vardi_files["model"], text])
        assert code == 0 and err == ""
        assert out.splitlines()[:2] == values


class TestSynthesize:
    def test_writes_strategy_and_values(self, capsys, vardi_files, tmp_path):
        out_file = tmp_path / "strategy.json"
        code, out, _ = run(capsys, ["synthesize", vardi_files["model"],
                                    vardi_files["formula"],
                                    "--out", str(out_file), "--state", "A"])
        assert code == 0
        assert "A 0.500000" in out
        data = json.loads(out_file.read_text())
        assert data["schema"] == "qmu-strategy/1"
        assert data["max_choices"] == {"0": [True, False]}

    def test_verifies_against_the_synthesized_value(self, capsys, vardi_files,
                                                    monkeypatch):
        # the residual reuses synthesize's value: no second evaluation
        import qmu.strategy
        calls = []
        monkeypatch.setattr(qmu.strategy, "evaluate",
                            lambda *args: calls.append(args))
        code, out, _ = run(capsys, ["synthesize", vardi_files["model"],
                                    vardi_files["formula"], "--json"])
        assert code == 0 and calls == []
        assert json.loads(out)["residual"] == 0.0

    def test_zero_site_formula_empty_strategy(self, capsys, vardi_files,
                                              tmp_path):
        out_file = tmp_path / "empty.json"
        code, _, _ = run(capsys, ["synthesize", vardi_files["model"],
                                  "<k> atB", "--out", str(out_file)])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["min_choices"] == {} and data["max_choices"] == {}

    def test_non_convergence_exits_two(self, capsys, vardi_files):
        code, out, err = run(capsys, ["synthesize", vardi_files["model"],
                                      vardi_files["formula"], "--max-iters", "1"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "did not converge" in err


class TestSimulate:
    def test_non_convergence_exits_two(self, capsys, vardi_files):
        code, out, err = run(capsys, ["simulate", vardi_files["model"],
                                      vardi_files["formula"], "--synthesize",
                                      "--state", "A", "--max-iters", "1"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "did not converge" in err

    def test_deterministic_output(self, capsys, vardi_files, tmp_path):
        strategy = tmp_path / "s.json"
        run(capsys, ["synthesize", vardi_files["model"],
                     vardi_files["formula"], "--out", str(strategy)])
        argv = ["simulate", vardi_files["model"], vardi_files["formula"],
                "--strategy", str(strategy), "--state", "A",
                "--paths", "500", "--seed", "7", "--max-depth", "60"]
        code_a, out_a, _ = run(capsys, argv)
        code_b, out_b, _ = run(capsys, argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_fingerprint_mismatch_exits_one(self, capsys, vardi_files,
                                            tmp_path):
        strategy = tmp_path / "s.json"
        run(capsys, ["synthesize", vardi_files["model"],
                     vardi_files["formula"], "--out", str(strategy)])
        code, _, err = run(capsys, ["simulate", vardi_files["model"],
                                    "mu X . <k> (atB \\/ X)",
                                    "--strategy", str(strategy),
                                    "--state", "A", "--paths", "10"])
        assert code == 1
        assert "fingerprint" in err

    def test_requires_a_strategy_source(self, capsys, vardi_files):
        code, _, err = run(capsys, ["simulate", vardi_files["model"],
                                    vardi_files["formula"], "--state", "A"])
        assert code == 1 and "--strategy" in err

    def test_takes_one_strategy_source(self, capsys, vardi_files, tmp_path):
        strategy = tmp_path / "s.json"
        run(capsys, ["synthesize", vardi_files["model"],
                     vardi_files["formula"], "--out", str(strategy)])
        code, out, err = run(capsys, ["simulate", vardi_files["model"],
                                      vardi_files["formula"], "--state", "A",
                                      "--strategy", str(strategy), "--synthesize"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "--synthesize: not allowed with argument --strategy" in err

    def test_unbound_predicate_exits_one(self, capsys, vardi_files, tmp_path):
        from qmu.formula import parse, reduce
        from qmu.modelio import load_model
        from qmu.strategy import MemorilessStrategy, save_strategy
        text = "if nope then atB else <k> atB"
        model = load_model(vardi_files["model"])
        strategy = tmp_path / "s.json"
        save_strategy(strategy, MemorilessStrategy((), ()),
                      reduce(parse(text), model.valuation))
        code, out, err = run(capsys, ["simulate", vardi_files["model"], text,
                                      "--strategy", str(strategy),
                                      "--state", "A", "--paths", "10"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "nope" in err

    @staticmethod
    def _three_state_model(path):
        from qmu.core import (
            Model, StateSpace, Valuation, expectation, predicate, transition,
        )
        from qmu.modelio import save_model
        save_model(path, Model(StateSpace(("A", "B", "C")), Valuation(
            expectations={"atB": expectation([0.0, 1.0, 0.0])},
            transitions={"k": transition([[(1, 1.0)], [(2, 1.0)],
                                          [(0, 1.0)]])},
            transition_sets={}, predicates={})))

    def test_strategy_for_fewer_states_exits_one(self, capsys, vardi_files,
                                                 tmp_path):
        strategy = tmp_path / "s.json"
        run(capsys, ["synthesize", vardi_files["model"],
                     vardi_files["formula"], "--out", str(strategy)])
        bigger = tmp_path / "three.json"
        self._three_state_model(bigger)
        code, out, err = run(capsys, ["simulate", str(bigger),
                                      vardi_files["formula"],
                                      "--strategy", str(strategy),
                                      "--state", "C", "--paths", "10"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "model has 3 states" in err

    def test_strategy_for_more_states_exits_one(self, capsys, vardi_files,
                                                tmp_path):
        strategy = tmp_path / "s.json"
        run(capsys, ["synthesize", vardi_files["model"],
                     vardi_files["formula"], "--out", str(strategy)])
        data = json.loads(strategy.read_text())
        data["max_choices"]["0"].append(True)
        strategy.write_text(json.dumps(data))
        code, out, err = run(capsys, ["simulate", vardi_files["model"],
                                      vardi_files["formula"],
                                      "--strategy", str(strategy),
                                      "--state", "A", "--paths", "10"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "model has 2 states" in err

    def test_strategy_file_not_an_object_exits_one(self, capsys, vardi_files,
                                                   tmp_path):
        strategy = tmp_path / "s.json"
        strategy.write_text("[]")
        code, out, err = run(capsys, ["simulate", vardi_files["model"],
                                      vardi_files["formula"],
                                      "--strategy", str(strategy),
                                      "--state", "A", "--paths", "10"])
        assert code == 1 and out == ""
        assert err == "error: strategy file must be a JSON object\n"

    def test_strategy_nested_too_deeply_exits_one(self, capsys, vardi_files,
                                                  tmp_path):
        deep = tmp_path / "s.json"
        deep.write_text("[" * 100_000)
        code, out, err = run(capsys, ["simulate", vardi_files["model"],
                                      vardi_files["formula"],
                                      "--strategy", str(deep),
                                      "--state", "A", "--paths", "10"])
        assert code == 1 and out == ""
        assert err == f"error: {deep}: invalid JSON: nested too deeply\n"

    def test_choice_map_not_an_object_exits_one(self, capsys, vardi_files,
                                                tmp_path):
        strategy = tmp_path / "s.json"
        run(capsys, ["synthesize", vardi_files["model"],
                     vardi_files["formula"], "--out", str(strategy)])
        data = json.loads(strategy.read_text())
        data["max_choices"] = [True, False]
        strategy.write_text(json.dumps(data))
        code, out, err = run(capsys, ["simulate", vardi_files["model"],
                                      vardi_files["formula"],
                                      "--strategy", str(strategy),
                                      "--state", "A", "--paths", "10"])
        assert code == 1 and out == ""
        assert err == "error: malformed max choice map\n"

    @pytest.mark.parametrize("table", [["x", None], [1, 0], [True, "true"]])
    def test_non_boolean_predicate_exits_one(self, capsys, vardi_files,
                                             tmp_path, table):
        strategy = tmp_path / "s.json"
        run(capsys, ["synthesize", vardi_files["model"],
                     vardi_files["formula"], "--out", str(strategy)])
        data = json.loads(strategy.read_text())
        data["max_choices"]["0"] = table
        strategy.write_text(json.dumps(data))
        code, out, err = run(capsys, ["simulate", vardi_files["model"],
                                      vardi_files["formula"],
                                      "--strategy", str(strategy),
                                      "--state", "A", "--paths", "10"])
        assert code == 1 and out == ""
        assert err == "error: max site 0 predicate is not a list of true/false\n"

    def test_strategy_file_not_json_exits_one(self, capsys, vardi_files,
                                              tmp_path):
        strategy = tmp_path / "s.json"
        strategy.write_text("{ not json")
        code, out, err = run(capsys, ["simulate", vardi_files["model"],
                                      vardi_files["formula"],
                                      "--strategy", str(strategy),
                                      "--state", "A", "--paths", "10"])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {strategy}: invalid JSON: Expecting ")
        assert len(err.splitlines()) == 1

    def test_strategy_file_not_utf8_exits_one(self, capsys, vardi_files,
                                              tmp_path):
        strategy = tmp_path / "s.json"
        run(capsys, ["synthesize", vardi_files["model"],
                     vardi_files["formula"], "--out", str(strategy)])
        strategy.write_bytes(b"\xff" + strategy.read_bytes())
        code, out, err = run(capsys, ["simulate", vardi_files["model"],
                                      vardi_files["formula"],
                                      "--strategy", str(strategy),
                                      "--state", "A", "--paths", "10"])
        assert code == 1 and out == ""
        assert err == (f"error: {strategy}: invalid JSON: 'utf-8' codec can't "
                       "decode byte 0xff in position 0: invalid start byte\n")

    def test_json_keys_are_the_estimate_fields(self, capsys, vardi_files):
        code, out, _ = run(capsys, ["simulate", vardi_files["model"],
                                    vardi_files["formula"], "--synthesize",
                                    "--state", "A", "--paths", "20", "--json"])
        assert code == 0
        assert sorted(json.loads(out)) == sorted(
            EstimateResult._fields + ("state", "paths", "seed", "max_depth",
                                      "truncated_fraction"))

    def test_forced_truncation_reported(self, capsys, vardi_files):
        code, out, _ = run(capsys, ["simulate", vardi_files["model"],
                                    "mu X . <k> X", "--synthesize",
                                    "--state", "A", "--paths", "20",
                                    "--seed", "3", "--max-depth", "1"])
        assert code == 0
        assert "truncated 20/20" in out

    def test_json_reports_truncation_causes_and_steps(self, capsys, vardi_files):
        # each playout: binder, colour, modality, colour re-entered past 1
        code, out, _ = run(capsys, ["simulate", vardi_files["model"],
                                    "mu X . <k> X", "--synthesize",
                                    "--state", "A", "--paths", "20",
                                    "--seed", "3", "--max-depth", "1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert {key: payload[key] for key in (
            "n_truncated", "truncated_mu", "truncated_nu", "truncated_budget",
            "mean_steps", "max_steps")} == {
            "n_truncated": 20, "truncated_mu": 20, "truncated_nu": 0,
            "truncated_budget": 0, "mean_steps": 4.0, "max_steps": 4}


class TestCrosscheck:
    def test_passing_run(self, capsys):
        code, out, _ = run(capsys, ["crosscheck", "--count", "5", "--seed", "1"])
        assert code == 0
        assert "checked 5 instances, 0 failures" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, ["crosscheck", "--count", "3", "--seed", "1",
                                    "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] == 3 and payload["failures"] == []
        assert [record["index"] for record in payload["instances"]] == [0, 1, 2]

    def test_json_records_every_passing_instance(self, capsys):
        code, out, _ = run(capsys, ["crosscheck", "--count", "4", "--seed", "1",
                                    "--json"])
        assert code == 0
        report = crosscheck(4, 1)
        assert json.loads(out)["instances"] == [asdict(r) for r in report.instances]
        for record in json.loads(out)["instances"]:
            assert set(record) == {f.name for f in fields(InstanceRecord)}

    def test_json_output_is_deterministic(self, capsys):
        argv = ["crosscheck", "--count", "4", "--seed", "2", "--json"]
        assert run(capsys, argv) == run(capsys, argv)

    def test_json_failures(self, capsys, monkeypatch):
        from qmu import cli
        from qmu.oracle import CheckFailure, CrosscheckReport
        failure = CheckFailure(2, "minimax gap", ("dump/instance_2.json",))
        monkeypatch.setattr(cli, "crosscheck",
                            lambda *args, **kwargs: CrosscheckReport(3, (failure,)))
        code, out, _ = run(capsys, ["crosscheck", "--count", "3", "--json"])
        assert code == 3
        assert json.loads(out) == {
            "checked": 3,
            "failures": [{"index": 2, "message": "minimax gap",
                          "dump_paths": ["dump/instance_2.json"]}],
            "instances": [],
        }

    def test_json_failures_are_check_failures(self, capsys):
        # a tolerance this coarse stops the evaluation far from the oracle
        code, out, _ = run(capsys, ["crosscheck", "--count", "5", "--seed", "1",
                                    "--tol", "0.5", "--json"])
        assert code == 3
        failures = json.loads(out)["failures"]
        assert failures
        for failure in failures:
            assert set(failure) == {f.name for f in fields(CheckFailure)}

    def test_text_failures_and_dump_paths(self, capsys, monkeypatch):
        from qmu import cli
        from qmu.oracle import CrosscheckReport
        failure = CheckFailure(2, "minimax gap", ("dump/instance_2.json",
                                                  "dump/instance_2.txt"))
        monkeypatch.setattr(cli, "crosscheck",
                            lambda *args, **kwargs: CrosscheckReport(3, (failure,)))
        code, out, _ = run(capsys, ["crosscheck", "--count", "3"])
        assert code == 3
        assert out == ("checked 3 instances, 1 failures\n"
                       "FAIL minimax gap\n"
                       "  dumped dump/instance_2.json\n"
                       "  dumped dump/instance_2.txt\n")

    def test_count_zero(self, capsys):
        code, out, _ = run(capsys, ["crosscheck", "--count", "0", "--seed", "1"])
        assert code == 0
        assert "checked 0 instances" in out

    @pytest.mark.parametrize("flags", [
        ["--count", "-5"],
        ["--max-min-sites", "-1", "--max-max-sites", "-1"],
    ], ids=["negative-count", "negative-sites"])
    def test_bounds_that_check_nothing_exit_one(self, capsys, flags):
        code, out, err = run(capsys, ["crosscheck", "--count", "3", *flags])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestInputErrors:
    def test_a_program_fault_escapes_main(self, monkeypatch, vardi_files):
        # a bare ValueError is a bug, not an input error with exit code 1
        from qmu import cli

        def broken(*args, **kwargs):
            raise ValueError("a fault inside the evaluator")

        monkeypatch.setattr(cli, "evaluate_fix", broken)
        with pytest.raises(ValueError, match="a fault inside the evaluator"):
            main(["eval", vardi_files["model"], vardi_files["formula"]])

    @pytest.mark.parametrize("argv, message", [
        (["crosscheck", "--count", "-1"], "--count cannot be negative, got -1"),
        (["crosscheck", "--seed", "-1"], "--seed cannot be negative, got -1"),
        (["crosscheck", "--max-states", "5"], "max_states must be between 1 and 4"),
        (["crosscheck", "--tol", "2"],
         "tolerance must lie strictly between 0 and 1"),
    ], ids=["count", "seed", "bounds", "tolerance"])
    def test_bad_arguments_exit_one_with_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--paths", "0"], "--paths must be at least 1, got 0"),
        (["--max-depth", "0"], "--max-depth must be at least 1, got 0"),
        (["--max-iters", "0"], "max_iterations must be at least 1"),
        (["--seed", "-1"], "--seed cannot be negative, got -1"),
    ], ids=["paths", "max-depth", "max-iters", "seed"])
    def test_bad_simulate_arguments_exit_one(self, capsys, vardi_files, flags,
                                             message):
        code, out, err = run(capsys, ["simulate", vardi_files["model"],
                                      vardi_files["formula"], "--synthesize",
                                      "--state", "A", *flags])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestExample:
    def test_vardi_model_round_trips(self, vardi_files):
        from qmu.core import validate
        from qmu.modelio import load_model
        assert validate(load_model(vardi_files["model"])) == []

    def test_futures_table_csv(self, capsys):
        code, out, _ = run(capsys, ["example", "futures", "--table", "optimal"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("label,v0,")
        cells = lines[1].split(",")
        assert cells[0] == "optimal expected sale"
        values = [float(x) for x in cells[1:]]
        assert values == pytest.approx(
            [4.16, 4.30, 4.55, 4.88, 5.24, 5.52, 6.00, 7.00, 8.00, 9.00, 9.50],
            abs=0.011)

    def test_futures_table_json(self, capsys):
        code, out, _ = run(capsys, ["example", "futures", "--table", "optimal",
                                    "--json"])
        assert code == 0
        (row,) = json.loads(out)
        # the keys keep their order of construction
        assert list(row) == ["table", "label", "values"]
        assert row["label"] == "optimal expected sale"
        assert row["values"] == pytest.approx(
            [4.16, 4.30, 4.55, 4.88, 5.24, 5.52, 6.00, 7.00, 8.00, 9.00, 9.50],
            abs=0.011)

    def test_files_and_json_table_keep_stdout_json(self, capsys, tmp_path):
        code, out, err = run(capsys, ["example", "futures", "--out", str(tmp_path),
                                      "--table", "optimal", "--json"])
        assert code == 0
        (row,) = json.loads(out)
        assert row["label"] == "optimal expected sale"
        assert err.splitlines() == [
            f"wrote {tmp_path / name}" for name in (
                "futures.model.json", "futures.game.formula.txt",
                "futures.atleast6.formula.txt")]

    def test_onemonth_table(self, capsys):
        code, out, _ = run(capsys, ["example", "futures", "--table", "onemonth"])
        assert code == 0
        values = [float(x) for x in out.strip().splitlines()[1].split(",")[1:]]
        assert values[1] == pytest.approx(1.00, abs=0.005)
        assert values[10] == pytest.approx(9.50, abs=0.005)

    def test_unknown_table_rejected(self, capsys):
        code, _, err = run(capsys, ["example", "futures", "--table", "bogus"])
        assert code == 1 and "unknown table" in err

    def test_tables_only_for_futures(self, capsys):
        code, _, err = run(capsys, ["example", "vardi", "--table", "optimal"])
        assert code == 1

    def test_table_non_convergence_exits_two(self, capsys, monkeypatch):
        # the command has no iteration cap option, so the cap is lowered
        # where it builds its configuration
        import qmu.cli
        from qmu.evaluator import EvalConfig
        monkeypatch.setattr(qmu.cli, "EvalConfig",
                            lambda tolerance: EvalConfig(tolerance, 1))
        code, out, err = run(capsys, ["example", "futures", "--table", "yield"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "did not converge" in err
