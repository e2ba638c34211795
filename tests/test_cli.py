"""CLI subcommands: exit codes, output files, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epibound
from epibound import cli, experiments
from epibound.bounds import evaluate_bound
from epibound.cli import main
from epibound.experiments import write_output

WORKED_INSTANCE = {
    "model": {"members": [
        {"kind": "categorical", "p": [0.0, 1.0]},
        {"kind": "categorical", "p": [0.25, 0.75]},
        {"kind": "categorical", "p": [0.5, 0.5]},
        {"kind": "categorical", "p": [0.75, 0.25]},
        {"kind": "categorical", "p": [1.0, 0.0]},
    ]},
    "predictor": {"kind": "categorical", "p": [0.25, 0.75]},
    "source": {"kind": "finite_tasks", "tasks": [
        {"w": 0.5, "dist": {"kind": "categorical", "p": [0.3, 0.7]}},
        {"w": 0.5, "dist": {"kind": "categorical", "p": [0.5, 0.5]}},
    ]},
    "target": {"kind": "finite_tasks", "tasks": [
        {"w": 1.0, "dist": {"kind": "categorical", "p": [0.6, 0.4]}},
    ]},
}


@pytest.fixture
def instance_file(tmp_path) -> Path:
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(WORKED_INSTANCE))
    return path


class TestBoundCommand:
    def test_worked_instance_margin(self, instance_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["bound", "--statement", "thm1", "--instance", str(instance_file),
                     "--alpha", "0.15", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["margin"] == pytest.approx(0.70, abs=1e-12)
        assert out.with_suffix(".manifest.json").exists()
        assert "thm1,0.15," in capsys.readouterr().out

    def test_cor_eps_with_flags(self, tmp_path, capsys):
        instance = dict(WORKED_INSTANCE)
        instance["target"] = {"kind": "finite_tasks", "tasks": [
            {"w": 0.5, "dist": {"kind": "categorical", "p": [0.35, 0.65]}},
            {"w": 0.5, "dist": {"kind": "categorical", "p": [0.45, 0.55]}},
        ]}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        code = main(["bound", "--statement", "cor_eps", "--instance", str(path),
                     "--alpha", "0.2", "--epsilon", "0.1", "--bS", "0.3", "--bT", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split(",")[8] == "0.1"  # epsilon column

    def test_precondition_violation_is_usage_error(self, instance_file, capsys):
        code = main(["bound", "--statement", "lemma1", "--instance", str(instance_file),
                     "--alpha", "0.15"])
        assert code == 2
        assert "no_shift" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["bound", "--statement", "thm1", "--instance", str(bad), "--alpha", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    @pytest.mark.parametrize("path, value", [
        (("source",), 5),
        (("predictor",), [0.5, 0.5]),
        (("source", "tasks", 0, "w"), "a"),
        (("predictor", "p"), "ab"),
        (("model",), {"members": 3}),
    ], ids=["source-int", "predictor-list", "weight-str", "p-str", "members-int"])
    @pytest.mark.parametrize("command", ["bound", "verify"])
    def test_malformed_instance_is_usage_error(self, path, value, command, tmp_path, capsys):
        data = json.loads(json.dumps({**WORKED_INSTANCE, "statement_id": "thm1", "alpha": 0.2}))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        argv = (["bound", "--statement", "thm1", "--instance", str(bad), "--alpha", "0.2"]
                if command == "bound" else ["verify", "--setup", str(bad), "--trials", "10"])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad} is malformed: ") and captured.out == ""

    @pytest.mark.parametrize("value, kind", [
        ([1, 2], "list"), ([WORKED_INSTANCE], "list"), (3, "int"), (None, "NoneType"),
        ("x", "str"),
    ], ids=["list", "list-of-instance", "int", "null", "str"])
    @pytest.mark.parametrize("command", ["bound", "verify"])
    def test_top_level_not_an_object_is_usage_error(self, value, kind, command, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(value))
        argv = (["bound", "--statement", "thm1", "--instance", str(bad), "--alpha", "0.2"]
                if command == "bound" else ["verify", "--setup", str(bad), "--trials", "10"])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad} must hold a JSON object, got {kind}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)),
    ], ids=["utf16-bom", "binary"])
    @pytest.mark.parametrize("command", ["bound", "verify"])
    def test_non_utf8_file_is_usage_error(self, content, command, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = (["bound", "--statement", "thm1", "--instance", str(bad), "--alpha", "0.2"]
                if command == "bound" else ["verify", "--setup", str(bad), "--trials", "10"])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad} is not UTF-8 text\n" and captured.out == ""

    def test_missing_file(self, capsys):
        code = main(["bound", "--statement", "thm1", "--instance", "/nonexistent.json",
                     "--alpha", "0.1"])
        assert code == 2

    def test_nan_probabilities_rejected(self, tmp_path, capsys):
        nan = {"kind": "categorical", "p": [float("nan"), float("nan")]}
        instance = {
            "model": {"members": [nan, nan]},
            "predictor": nan,
            "source": {"kind": "finite_tasks", "tasks": [{"w": 1.0, "dist": nan}]},
            "target": {"kind": "finite_tasks", "tasks": [{"w": 1.0, "dist": nan}]},
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(instance))
        code = main(["bound", "--statement", "thm1", "--instance", str(path), "--alpha", "0.1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "probabilities must sum to 1" in captured.err and "nan" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_rejected(self, instance_file, capsys, alpha):
        code = main(["bound", "--statement", "thm1", "--instance", str(instance_file),
                     "--alpha", alpha])
        assert code == 2
        captured = capsys.readouterr()
        assert "alpha must be finite" in captured.err and captured.out == ""

    def test_more_than_12_outcomes_is_usage_error(self, tmp_path, capsys):
        # thm1's Chebyshev delta enumerates all 2^m events, for at most 12 outcomes
        p = {"kind": "categorical", "p": [1.0 / 13] * 13}
        tasks = {"kind": "finite_tasks", "tasks": [{"w": 1.0, "dist": p}]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"model": {"members": [p]}, "predictor": p,
                                    "source": tasks, "target": tasks}))
        code = main(["bound", "--statement", "thm1", "--instance", str(path), "--alpha", "0.1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: sup-variance enumerates all 2^m events of an m-outcome space, "
            "for at most 12 outcomes; this space has 13\n")
        assert captured.out == ""

    @pytest.mark.parametrize("path, value", [
        (("predictor", "stddev"), 1e200),
        (("source", "mean"), 1e308),
    ], ids=["predictor-stddev", "source-mean"])
    @pytest.mark.parametrize("command", ["bound", "verify"])
    def test_non_finite_tv_search_is_usage_error(self, path, value, command, tmp_path, capsys):
        data = json.loads(json.dumps({**IG_INSTANCE, "statement_id": "thm1", "alpha": 0.2}))
        data[path[0]][path[1]] = value
        bad = tmp_path / "ig.json"
        bad.write_text(json.dumps(data))
        argv = (["bound", "--statement", "thm1", "--instance", str(bad), "--alpha", "0.2"]
                if command == "bound" else ["verify", "--setup", str(bad), "--trials", "10"])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: TV crossing search over ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("path, value", [
        (("predictor", "stddev"), 1e200),
        (("source", "mean"), 1e308),
    ], ids=["predictor-stddev", "source-mean"])
    @pytest.mark.parametrize("command", ["bound", "verify"])
    def test_overflow_prints_no_numpy_warning(self, path, value, command, tmp_path):
        # in a fresh interpreter, where no test runner captures the warnings
        data = json.loads(json.dumps({**IG_INSTANCE, "statement_id": "thm1", "alpha": 0.2}))
        data[path[0]][path[1]] = value
        bad = tmp_path / "ig.json"
        bad.write_text(json.dumps(data))
        argv = (["bound", "--statement", "thm1", "--instance", str(bad), "--alpha", "0.2"]
                if command == "bound" else ["verify", "--setup", str(bad), "--trials", "10"])
        run = subprocess.run([sys.executable, "-m", "epibound.cli", *argv],
                             capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr.startswith("error: TV crossing search over ")
        assert run.stderr.count("\n") == 1 and run.stdout == ""

    @pytest.mark.parametrize("command", ["bound", "verify"])
    def test_overflowing_task_mean_is_usage_error(self, command, tmp_path):
        # a finite Gaussian target with one task at mean 1e160: its barycenter's
        # moments and the threshold grid's squared pooled mean overflow
        target = {"kind": "finite_tasks", "tasks": [
            {"w": 0.5, "dist": {"kind": "gaussian", "mean": 0.0, "stddev": 1.0}},
            {"w": 0.5, "dist": {"kind": "gaussian", "mean": 1e160, "stddev": 1.0}}]}
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps({**IG_INSTANCE, "target": target, "statement_id": "thm1",
                                   "alpha": 0.2}))
        argv = (["bound", "--statement", "thm1", "--instance", str(bad), "--alpha", "0.2"]
                if command == "bound" else ["verify", "--setup", str(bad), "--trials", "10"])
        run = subprocess.run([sys.executable, "-m", "epibound.cli", *argv],
                             capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr.startswith("error: ") and run.stderr.endswith(" is not finite\n")
        assert run.stderr.count("\n") == 1 and run.stdout == ""

    def test_far_zero_weight_task_changes_nothing(self, tmp_path, capsys):
        # a finite Gaussian source with a weight-0 task at mean 1e160: 0 * inf made its
        # pooled stddev NaN, and the TV crossing search over [nan, nan] failed
        tasks = [{"w": 1.0, "dist": {"kind": "gaussian", "mean": 0.0, "stddev": 1.0}},
                 {"w": 0.0, "dist": {"kind": "gaussian", "mean": 1e160, "stddev": 1.0}}]
        outs = []
        for source_tasks in (tasks, tasks[:1]):
            path = tmp_path / "instance.json"
            path.write_text(json.dumps({**IG_INSTANCE, "source": {
                "kind": "finite_tasks", "tasks": source_tasks}}))
            code = main(["bound", "--statement", "thm1", "--instance", str(path),
                         "--alpha", "0.2"])
            outs.append((code, *capsys.readouterr()))
        assert outs[0] == outs[1] and outs[0][0] == 0 and outs[0][2] == ""

    def test_overflowing_closed_form_is_usage_error(self, tmp_path):
        # a Gaussian predictor at mean 1.5e154 and N(0, 1) everywhere else: the
        # squared mean gap in the Hellinger closed form of the verify loss overflows
        gaussian = {"kind": "gaussian", "mean": 0.0, "stddev": 1.0}
        tasks = {"kind": "finite_tasks", "tasks": [{"w": 1.0, "dist": gaussian}]}
        bad = tmp_path / "far.json"
        bad.write_text(json.dumps({
            "predictor": {**gaussian, "mean": 1.5e154}, "model": {"members": [gaussian]},
            "source": tasks, "target": tasks, "statement_id": "cor_hellinger", "alpha": 0.2}))
        run = subprocess.run([sys.executable, "-m", "epibound.cli", "verify", "--setup", str(bad),
                              "--trials", "10"], capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr.startswith(
            "error: the closed form of the squared Hellinger distance over- or underflows")
        assert run.stderr.count("\n") == 1 and run.stdout == ""

    def test_equal_families_share_one_reification(self, tmp_path, capsys):
        # two equal families read from a file are two objects; reified at the same nodes,
        # they still mean no shift
        data = json.loads(json.dumps({**IG_INSTANCE, "target": IG_INSTANCE["source"]}))
        path = tmp_path / "ig.json"
        path.write_text(json.dumps(data))
        assert main(["bound", "--statement", "lemma2", "--instance", str(path),
                     "--alpha", "0.2"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        setup = experiments.setup_from_dict(data)
        tasks = setup["source"]
        report = evaluate_bound("lemma2", setup["model"], setup["predictor"], tasks, tasks,
                                alpha=0.2)
        assert row == report.to_csv_row()
        assert report.D == 0.0 and report.delta == pytest.approx(0.018208, abs=1e-6)

    def test_vanishing_predictor_stddev_is_full_tv(self, tmp_path, capsys):
        # the predictor's log-density is -inf off its mean; a NaN there would make C read 0.0
        data = json.loads(json.dumps(IG_INSTANCE))
        data["predictor"]["stddev"] = 1e-300
        path = tmp_path / "ig.json"
        path.write_text(json.dumps(data))
        argv = ["bound", "--statement", "thm1", "--instance", str(path), "--alpha", "0.2"]
        assert main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split(",")[3] == "C"
        assert float(row.split(",")[3]) == pytest.approx(1.0, abs=1e-12)

    def test_parser_built_once_per_process(self, instance_file, capsys, monkeypatch):
        argv = ["bound", "--statement", "thm1", "--instance", str(instance_file), "--alpha", "0.15"]
        main(argv)  # builds the parser if no earlier call did
        capsys.readouterr()

        def fail():
            raise AssertionError("build_parser called again")

        monkeypatch.setattr(cli, "build_parser", fail)
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("statement_id,alpha,") and outputs[0].err == ""


def _categorical(p) -> dict:
    return {"kind": "categorical", "p": p}


def _with_source_rows(*rows) -> dict:
    data = json.loads(json.dumps(WORKED_INSTANCE))
    data["source"]["tasks"] = [{"w": 1.0 / len(rows), "dist": _categorical(r)} for r in rows]
    return data


def _edited(path: tuple, value) -> dict:
    data = json.loads(json.dumps(WORKED_INSTANCE))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


_WIDE = _categorical([1.0 / 13] * 13)
_WIDE_TASKS = {"kind": "finite_tasks", "tasks": [{"w": 1.0, "dist": _WIDE}]}
_GAUSSIAN_MEMBER = {"kind": "gaussian", "mean": 0.0, "stddev": 1.0}
_SUM = "probabilities must sum to 1 within 1e-12, got "

# instance files the loader rejects, with the one error line each prints
LOADER_ERRORS = {
    "ragged-rows": (_with_source_rows([0.3, 0.7], [0.2, 0.3, 0.5]),
                    "all tasks must share one sample space"),
    "gaussian-member": (_edited(("model", "members"), [
        _categorical([0.0, 1.0]), _GAUSSIAN_MEMBER, _categorical([0.5, 0.5])]),
        "model class members must share one sample space"),
    "no-tasks": (_edited(("source", "tasks"), []), "task list must be nonempty"),
    "no-members": (_edited(("model", "members"), []), "model class must be nonempty"),
    "null-weight": (_edited(("source", "tasks", 1, "w"), None),
                    "task weights must sum to 1 within 1e-12, got np.float64(nan)"),
    "2d-p": (_edited(("source", "tasks", 0, "dist", "p"), [[0.3, 0.7]]),
             "probability vector must be 1-D and nonempty"),
    "predictor-outcomes": (_edited(("predictor", "p"), [0.2, 0.3, 0.5]),
                           "distributions on different spaces: categorical(3 outcomes) "
                           "vs categorical(2 outcomes)"),
    "13-outcomes": ({"model": {"members": [_WIDE]}, "predictor": _WIDE,
                     "source": _WIDE_TASKS, "target": _WIDE_TASKS},
                    "sup-variance enumerates all 2^m events of an m-outcome space, "
                    "for at most 12 outcomes; this space has 13"),
    # rows are checked in order, each for negative entries before its sum
    "sum-then-negative": (_with_source_rows([0.3, 0.6], [0.5, 0.5], [-0.5, 1.5]),
                          _SUM + "np.float64(0.8999999999999999)"),
    "negative-then-sum": (_with_source_rows([0.5, 0.5], [-0.5, 1.5], [0.3, 0.6]),
                          "probabilities must be nonnegative"),
    "member-sum-then-negative": (_edited(("model", "members"), [
        _categorical([0.5, 0.5]), _categorical([0.25, 0.5]), _categorical([1.5, -0.5])]),
        _SUM + "np.float64(0.75)"),
}


# the worked instance with its source tasks reweighted as the target: the Eps statements hold
RESHIFTED_INSTANCE = {**WORKED_INSTANCE, "target": {"kind": "finite_tasks", "tasks": [
    {"w": 0.6, "dist": {"kind": "categorical", "p": [0.3, 0.7]}},
    {"w": 0.4, "dist": {"kind": "categorical", "p": [0.5, 0.5]}},
]}}
ALPHA_UNDERFLOW = "error: alpha 1e-300 is too small: alpha * alpha underflows to 0\n"
EPS_UNDERFLOW = "error: b_S * alpha * alpha underflows to 0 at alpha 1e-12\n"


class TestUnderflowingDeltaDenominator:
    """An alpha^2, or a b_S * alpha^2, that underflows to 0 is one usage error on every path."""

    def _run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def _file(self, tmp_path, data) -> str:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_bound_alpha(self, instance_file, capsys):
        argv = ["bound", "--statement", "thm1", "--instance", str(instance_file),
                "--alpha", "1e-300"]
        assert self._run(argv, capsys) == (2, "", ALPHA_UNDERFLOW)

    @pytest.mark.parametrize("statement", ["cor_eps", "cor_eps_dist"])
    def test_bound_eps_scale(self, statement, tmp_path, capsys):
        argv = ["bound", "--statement", statement, "--instance",
                self._file(tmp_path, RESHIFTED_INSTANCE), "--epsilon", "0.2", "--bT", "0.3"]
        assert self._run(argv + ["--alpha", "1e-12", "--bS", "1e-300"], capsys) == (
            2, "", EPS_UNDERFLOW)
        code, out, _ = self._run(argv + ["--alpha", "0.1", "--bS", "0.3"], capsys)
        assert code == 0 and out.count("\n") == 2

    @pytest.mark.parametrize("extra, err", [
        ({"statement_id": "thm1", "alpha": 1e-300}, ALPHA_UNDERFLOW),
        ({"statement_id": "cor_eps", "alpha": 1e-12, "epsilon": 0.2, "b_source": 1e-300,
          "b_target": 0.3}, EPS_UNDERFLOW),
    ], ids=["alpha", "eps-scale"])
    def test_verify(self, extra, err, tmp_path, capsys):
        setup = self._file(tmp_path, {**RESHIFTED_INSTANCE, **extra})
        assert self._run(["verify", "--setup", setup, "--trials", "10"], capsys) == (2, "", err)

    def test_oracle_alpha(self, capsys):
        argv = ["oracle", "--instances", "3", "--alphas", "0.1,1e-300"]
        assert self._run(argv, capsys) == (2, "", ALPHA_UNDERFLOW)

    def test_oracle_eps_scale(self, capsys):
        # 1e-160 squares to a subnormal; some drawn source's b_S times it underflows
        code, out, err = self._run(["oracle", "--instances", "20", "--alphas", "1e-160"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: b_S * alpha * alpha underflows to 0 at alpha 1e-160\n"

    @pytest.mark.parametrize("argv", [
        ["--statement", "thm1"],
        ["--statement", "cor_eps", "--epsilon", "0.2", "--bS", "0.3", "--bT", "0.3"],
    ], ids=["thm1", "cor_eps"])
    def test_subnormal_square_keeps_infinite_delta(self, argv, tmp_path, capsys):
        argv = ["bound", "--instance", self._file(tmp_path, RESHIFTED_INSTANCE),
                "--alpha", "1e-160", *argv]
        code, out, err = self._run(argv, capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[7] == "inf"


class TestLoaderErrors:
    @pytest.mark.parametrize("case", list(LOADER_ERRORS))
    @pytest.mark.parametrize("command", ["bound", "verify"])
    def test_one_error_line(self, case, command, tmp_path, capsys):
        data, message = LOADER_ERRORS[case]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({**data, "statement_id": "thm1", "alpha": 0.2}))
        argv = (["bound", "--statement", "thm1", "--instance", str(path), "--alpha", "0.2"]
                if command == "bound" else ["verify", "--setup", str(path), "--trials", "10"])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""


class TestBayesianParameters:
    @pytest.mark.parametrize("key, value", [
        ("mean", [math.nan, 0.0]),
        ("mean", [math.inf, 0.0]),
        ("cov", [[math.inf, 0.0], [0.0, 1.0]]),
        ("cov", [[1.0, math.nan], [math.nan, 1.0]]),
    ], ids=["nan-mean", "inf-mean", "inf-cov", "nan-cov"])
    @pytest.mark.parametrize("command", ["bound", "verify"])
    def test_non_finite_parameters_are_usage_errors(self, key, value, command, tmp_path,
                                                     capsys):
        param = {"kind": "gaussian_param", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        data = {**WORKED_INSTANCE, "param_posterior": {**param, key: value},
                "param_best": param, "statement_id": "cor_bayesian", "alpha": 0.2}
        path = tmp_path / "bayes.json"
        path.write_text(json.dumps(data))  # NaN and Infinity, as Python's json reads them
        argv = (["bound", "--statement", "cor_bayesian", "--instance", str(path), "--alpha", "0.2"]
                if command == "bound" else ["verify", "--setup", str(path), "--trials", "10"])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: mean and covariance entries must be finite, got ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_finite_parameters_pass(self, tmp_path, capsys):
        param = {"kind": "gaussian_param", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        path = tmp_path / "bayes.json"
        path.write_text(json.dumps({**WORKED_INSTANCE, "param_posterior": param,
                                    "param_best": param}))
        assert main(["bound", "--statement", "cor_bayesian", "--instance", str(path),
                     "--alpha", "0.2"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert math.isfinite(float(row[6]))  # the margin

    @pytest.mark.parametrize("kind", ["categorical", "gaussian_param"])
    def test_parameter_posteriors_load_from_their_dicts(self, kind, tmp_path, capsys):
        from epibound import Categorical, GaussianParamDist

        if kind == "categorical":
            posterior, best = Categorical([0.2, 0.5, 0.3]), Categorical([0.3, 0.4, 0.3])
        else:
            posterior = GaussianParamDist([0.2, -0.1], [[0.5, 0.2], [0.2, 0.3]])
            best = GaussianParamDist([0.0, 0.1], [[0.4, 0.0], [0.0, 0.6]])
        path = tmp_path / "bayes.json"
        path.write_text(json.dumps({**WORKED_INSTANCE, "param_posterior": posterior.to_dict(),
                                    "param_best": best.to_dict()}))
        assert main(["bound", "--statement", "cor_bayesian", "--instance", str(path),
                     "--alpha", "0.2"]) == 0
        setup = experiments.setup_from_dict(WORKED_INSTANCE)
        report = evaluate_bound("cor_bayesian", setup["model"], setup["predictor"],
                                setup["source"], setup["target"], alpha=0.2,
                                param_posterior=posterior, param_best=best)
        assert capsys.readouterr().out.splitlines()[1] == report.to_csv_row()


class TestArrayBackedRequests:
    def test_categorical_objects_do_not_grow_with_tasks_or_members(self, tmp_path, monkeypatch,
                                                                   capsys):
        # a finite bound request holds its tasks and members as matrices: it makes
        # the same number of Categorical objects, checked or views, for 3 members
        # and 2 tasks as for 20 members and 6 tasks
        from epibound import distributions
        from epibound.bounds import STATEMENT_IDS
        from epibound.oracle import InstanceConfig, generate_instance

        made = []
        post_init, item = distributions.Categorical.__post_init__, distributions._Rows._item

        def counted_post_init(self):
            made.append("checked")
            post_init(self)

        def counted_item(self, i):  # a view on a row, made on first access
            made.append("view")
            return item(self, i)

        monkeypatch.setattr(distributions.Categorical, "__post_init__", counted_post_init)
        monkeypatch.setattr(distributions._Rows, "_item", counted_item)
        counts, codes = {}, {}
        for size in (3, 20):
            tasks = 2 if size == 3 else 6
            config = InstanceConfig(tasks_range=(tasks, tasks), members_range=(size, size),
                                    constraint="assumption2")
            path = tmp_path / f"instance_{size}.json"
            path.write_text(json.dumps(generate_instance(4, config).to_dict()))
            for sid in STATEMENT_IDS:
                made.clear()
                codes[size, sid] = main(["bound", "--statement", sid, "--instance", str(path),
                                         "--alpha", "0.2", "--epsilon", "0.3"])
                counts[size, sid] = sorted(made)
        capsys.readouterr()
        for sid in STATEMENT_IDS:
            assert codes[3, sid] == codes[20, sid], sid
            assert counts[3, sid] == counts[20, sid], sid
            assert len(counts[3, sid]) <= 4, sid  # predictor, two barycenters, best member
        assert sum(code == 0 for code in codes.values()) >= 12


def _finite_case(edit) -> dict:
    data = json.loads(json.dumps(WORKED_INSTANCE))
    edit(data)
    return data


# malformed finite instances, with the exit code and stderr that ``bound`` gave when every
# instance was read by ``setup_from_dict``; "{path}" stands for the instance's path
MALFORMED_FINITE = {
    "negative-member": (
        lambda d: d["model"]["members"].__setitem__(1, _categorical([-0.25, 1.25])),
        2, "error: probabilities must be nonnegative\n"),
    "task-row-sum": (
        lambda d: d["target"]["tasks"][0]["dist"].__setitem__("p", [0.6, 0.5]),
        2, "error: probabilities must sum to 1 within 1e-12, got np.float64(1.1)\n"),
    "weights-sum": (
        lambda d: d["source"]["tasks"][1].__setitem__("w", 0.6),
        2, "error: task weights must sum to 1 within 1e-12, got np.float64(1.1)\n"),
    "missing-weight": (
        lambda d: d["source"]["tasks"][1].pop("w"), 2, "error: {path} is missing key 'w'\n"),
    "members-other-m": (
        lambda d: d["model"].__setitem__("members", [_categorical([0.2, 0.3, 0.5])]),
        2, "error: distributions on different spaces: categorical(3 outcomes) "
           "vs categorical(2 outcomes)\n"),
    "ragged-task-rows": (
        lambda d: d["target"]["tasks"].append({"w": 0.0, "dist": _categorical([0.2, 0.3, 0.5])}),
        2, "error: all tasks must share one sample space\n"),
    "gaussian-task": (
        lambda d: d["source"]["tasks"].__setitem__(1, {"w": 0.5, "dist": _GAUSSIAN_MEMBER}),
        2, "error: all tasks must share one sample space\n"),
    "missing-model": (lambda d: d.pop("model"), 2, "error: {path} is missing key 'model'\n"),
    "not-an-object": (None, 2, "error: {path} must hold a JSON object, got list\n"),
}


class TestFiniteRows:
    """A finite ``bound`` request reads its instance as rows, with no distribution objects."""

    @pytest.mark.parametrize("mode", ["none", "no_shift", "perfect_no_shift", "assumption1",
                                      "assumption2"])
    def test_builds_no_distribution_objects(self, mode, tmp_path, monkeypatch, capsys):
        from epibound import Categorical, FiniteTaskDistribution, ModelClass
        from epibound.bounds import CSV_HEADER, STATEMENT_IDS
        from epibound.errors import EpiboundError
        from epibound.oracle import DEFAULT_ALPHAS, InstanceConfig, generate_instance

        made = []
        for cls in (Categorical, FiniteTaskDistribution, ModelClass):
            monkeypatch.setattr(cls, "__post_init__", lambda self, _init=cls.__post_init__: (
                made.append(type(self).__name__), _init(self))[1])
        out = tmp_path / "report.json"
        for seed in range(3):
            inst = generate_instance(seed, InstanceConfig(constraint=mode)).to_dict()
            path = tmp_path / f"instance_{seed}.json"
            path.write_text(json.dumps(inst))
            setup = experiments.setup_from_dict(inst)
            epsilon = 0.3 if inst["epsilon"] is None else inst["epsilon"]
            for k, sid in enumerate(STATEMENT_IDS):
                alpha = DEFAULT_ALPHAS[(seed + k) % len(DEFAULT_ALPHAS)]
                try:
                    report = evaluate_bound(sid, setup["model"], setup["predictor"],
                                            setup["source"], setup["target"], alpha=alpha,
                                            epsilon=epsilon)
                    want = (0, f"{CSV_HEADER}\n{report.to_csv_row()}\nreport written to {out}\n",
                            "", json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
                except EpiboundError as exc:
                    want = (2, "", f"error: {exc}\n", None)
                out.unlink(missing_ok=True)
                made.clear()
                code = main(["bound", "--statement", sid, "--instance", str(path), "--alpha",
                             repr(alpha), "--epsilon", repr(epsilon), "--out", str(out)])
                captured = capsys.readouterr()
                written = out.read_text() if out.exists() else None
                assert (code, captured.out, captured.err, written) == want, (seed, sid)
                assert made == [], (seed, sid)

    @pytest.mark.parametrize("case", list(MALFORMED_FINITE))
    def test_malformed_finite_instances_keep_their_errors(self, case, tmp_path, capsys):
        edit, code, err = MALFORMED_FINITE[case]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps([WORKED_INSTANCE] if edit is None else _finite_case(edit)))
        assert main(["bound", "--statement", "thm1", "--instance", str(path),
                     "--alpha", "0.2"]) == code
        assert capsys.readouterr() == ("", err.replace("{path}", str(path)))


class TestOracleCommand:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["oracle", "--instances", "60", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["total_violations"] == 0
        assert "thm1" in capsys.readouterr().out

    def test_alpha_flag(self, capsys):
        code = main(["oracle", "--instances", "10", "--seed", "4", "--alphas", "0.2,0.4"])
        assert code == 0

    @pytest.mark.parametrize("alphas", ["nan", "0.1,nan", "inf"])
    def test_non_finite_alphas_rejected(self, capsys, alphas):
        code = main(["oracle", "--instances", "3", "--alphas", alphas])
        assert code == 2
        assert "alphas must be finite and positive" in capsys.readouterr().err

    def test_report_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["oracle", "--instances", "25", "--seed", "6", "--out", str(a)])
        main(["oracle", "--instances", "25", "--seed", "6", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_threads_flag_identical_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["oracle", "--instances", "24", "--seed", "7", "--threads", "1", "--out", str(a)])
        main(["oracle", "--instances", "24", "--seed", "7", "--threads", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestExperimentCommands:
    def test_neighborhood_run(self, tmp_path):
        code = main(["experiment", "neighborhood", "--epsilons", "0.1,0.3",
                     "--sims", "3", "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        csv = (tmp_path / "neighborhood.csv").read_text()
        assert csv.splitlines()[0] == "sim,seed,n,epsilon,epistemic_error,C,D,looseness,posterior_mass,runtime_ms"
        assert len(csv.splitlines()) == 7
        assert (tmp_path / "neighborhood_manifest.json").exists()

    def test_negative_transfer_run_and_n_grid_parsing(self, tmp_path):
        code = main(["experiment", "negative-transfer", "--scenario", "pos",
                     "--n-grid", "1:3,10", "--sims", "2", "--seed", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        csv = (tmp_path / "negative_transfer_pos.csv").read_text()
        ns = {int(line.split(",")[2]) for line in csv.splitlines()[1:]}
        assert ns == {1, 2, 3, 10}

    def test_byte_identical_reruns(self, tmp_path):
        for d in ("one", "two"):
            main(["experiment", "neighborhood", "--epsilons", "0.2", "--sims", "4",
                  "--seed", "11", "--out", str(tmp_path / d)])
        a = (tmp_path / "one" / "neighborhood.csv").read_bytes()
        b = (tmp_path / "two" / "neighborhood.csv").read_bytes()
        assert a == b

    def test_out_flag_is_the_only_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EPIBOUND_OUT_DIR", str(tmp_path / "env"))  # ignored: --out is the one path
        main(["experiment", "neighborhood", "--epsilons", "0.2", "--sims", "1",
              "--seed", "1", "--out", str(tmp_path / "flag")])
        assert (tmp_path / "flag" / "neighborhood.csv").exists()
        assert not (tmp_path / "env").exists()


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-(2**63) - 1, 2**64], ids=["below", "above"])
    @pytest.mark.parametrize("argv", [
        ["oracle", "--instances", "4", "--threads", "1"],
        ["oracle", "--instances", "4", "--threads", "2"],
        ["experiment", "neighborhood", "--epsilons", "0.2", "--sims", "2", "--threads", "2"],
        ["experiment", "negative-transfer", "--scenario", "pos", "--n-grid", "1,2", "--sims", "2",
         "--threads", "2"],
        ["verify", "--trials", "10"],
    ], ids=["oracle", "oracle-threads-2", "neighborhood", "negative-transfer", "verify"])
    def test_out_of_range_seed_is_usage_error(self, argv, seed, tmp_path, capsys, serial_pools):
        # rejected before any worker starts or any file is written
        out = tmp_path / "out"
        if argv[0] == "verify":
            setup = tmp_path / "setup.json"
            setup.write_text(json.dumps({**WORKED_INSTANCE, "statement_id": "thm1", "alpha": 0.15}))
            argv = [*argv, "--setup", str(setup)]
        else:
            argv = [*argv, "--out", str(out / "report.json" if argv[0] == "oracle" else out)]
        assert main([*argv, "--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must lie in [-2**63, 2**64), got {seed}\n"
        assert captured.out == ""
        assert serial_pools == [] and not out.exists()


IG_INSTANCE = {
    "model": {"members": [{"kind": "gaussian", "mean": m, "stddev": 0.8} for m in (0.5, 1.0, 1.5)]},
    "predictor": {"kind": "gaussian", "mean": 1.1, "stddev": 0.8},
    "source": {"kind": "ig_gaussian_tasks", "mean": 1.0, "shape": 20.0, "rate": 10.0},
    "target": {"kind": "ig_gaussian_tasks", "mean": 1.2, "shape": 18.0, "rate": 9.0},
}


class TestContinuousSourceEpsilon:
    def test_eps_statement_on_an_ig_source_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ig.json"
        path.write_text(json.dumps(IG_INSTANCE))
        assert main(["bound", "--statement", "cor_eps", "--instance", str(path),
                     "--alpha", "0.2", "--epsilon", "0.1"]) == 2
        assert "source_boundedness" in capsys.readouterr().err


class TestStudentTInstances:
    T = {"kind": "student_t", "df": 40.0, "loc": 1.0, "scale": 0.75}

    def test_t_predictor_and_member(self, tmp_path, capsys):
        data = {**IG_INSTANCE, "predictor": self.T,
                "model": {"members": [*IG_INSTANCE["model"]["members"], self.T]}}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        assert main(["bound", "--statement", "thm1", "--instance", str(path),
                     "--alpha", "0.2"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        setup = experiments.setup_from_dict(data)
        report = evaluate_bound("thm1", setup["model"], setup["predictor"], setup["source"],
                                setup["target"], alpha=0.2)
        assert row == report.to_csv_row()

    @pytest.mark.parametrize("key, value, message", [
        ("df", 0.0, "df must be finite and strictly positive"),
        ("df", math.inf, "df must be finite and strictly positive"),
        ("scale", -1.0, "scale must be finite and strictly positive"),
        ("loc", math.nan, "loc must be finite"),
    ])
    def test_bad_parameters_are_usage_errors(self, key, value, message, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({**IG_INSTANCE, "predictor": {**self.T, key: value}}))
        assert main(["bound", "--statement", "thm1", "--instance", str(path),
                     "--alpha", "0.2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}, got ")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestSubprocessDeterminism:
    @pytest.mark.parametrize("instance", [WORKED_INSTANCE, IG_INSTANCE], ids=["finite", "ig"])
    def test_fresh_bound_matches_in_process(self, instance, tmp_path, capsys):
        path, out = tmp_path / "instance.json", tmp_path / "report.json"
        path.write_text(json.dumps(instance))
        argv = ["bound", "--statement", "thm1", "--instance", str(path), "--alpha", "0.2",
                "--out", str(out)]
        fresh = subprocess.run([sys.executable, "-m", "epibound.cli", *argv],
                               check=True, capture_output=True)
        fresh_report = out.read_bytes()
        assert main(argv) == 0
        assert fresh.stdout == capsys.readouterr().out.encode()
        assert fresh_report == out.read_bytes()

    def test_fresh_ig_bounds_agree(self, tmp_path):
        # an inverse-gamma family is reified at fixed quantile nodes: no seed, no state
        path, out = tmp_path / "ig.json", tmp_path / "report.json"
        path.write_text(json.dumps(IG_INSTANCE))
        runs = []
        for _ in range(2):
            run = subprocess.run(
                [sys.executable, "-m", "epibound.cli", "bound", "--statement", "thm1",
                 "--instance", str(path), "--alpha", "0.2", "--out", str(out)],
                check=True, capture_output=True)
            runs.append((run.stdout, out.read_bytes()))
        assert runs[0] == runs[1]

    def test_fresh_processes_agree(self, tmp_path):
        cmd = ["experiment", "neighborhood", "--epsilons", "0.2", "--sims", "3",
               "--seed", "19"]
        for d in ("p1", "p2"):
            subprocess.run(
                [sys.executable, "-m", "epibound.cli", *cmd, "--out", str(tmp_path / d)],
                check=True, capture_output=True,
            )
        a = (tmp_path / "p1" / "neighborhood.csv").read_bytes()
        b = (tmp_path / "p2" / "neighborhood.csv").read_bytes()
        assert a == b


# run in a fresh interpreter: argv[1] holds finite.json, ig.json and setup.json
LAZY_QUAD_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

import numpy as np

import epibound.cli

work = Path(sys.argv[1])
bound = ["bound", "--statement", "thm1", "--alpha", "0.15", "--out", str(work / "report.json")]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [epibound.cli.main(bound + ["--instance", str(work / "finite.json")]),
             epibound.cli.main(bound + ["--instance", str(work / "ig.json")]),
             epibound.cli.main(["verify", "--setup", str(work / "setup.json"),
                                "--trials", "200", "--seed", "2"])]
after_cli = "scipy.integrate" in sys.modules

from epibound import GaussianMixture, bayes, divergences

p = GaussianMixture([0.3, 0.7], [-1.0, 1.5], [0.6, 1.2])
q = GaussianMixture([0.5, 0.5], [0.0, 2.0], [1.0, 0.4])
# a narrow, strongly correlated posterior that quad's first step does not settle
post = bayes.GaussianParamDist(np.array([-5.877042553715268e-06, -125.20681740860502]),
                               np.array([[4.401745986339243e-10, 0.01202573410681535],
                                         [0.01202573410681535, 332863.2936849623]]))

def integrals():
    return [divergences.hellinger_sq(p, q),
            bayes.posterior_mass_near(post, [0.0, 0.0], 0.0010935698796058714)]

lazy = integrals()
after_quad = "scipy.integrate" in sys.modules
from scipy.integrate import quad
rebound = [divergences.quad is quad, bayes.quad is quad]
divergences.quad = bayes.quad = quad
print(json.dumps({"codes": codes, "after_cli": after_cli, "after_quad": after_quad,
                  "rebound": rebound, "lazy": lazy, "direct": integrals()}))
"""


# run in a fresh interpreter: argv[1] holds finite.json, ig.json and setup.json; with
# argv[2] == "warm" scipy.special is imported before epibound
DEFERRED_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

if sys.argv[2] == "warm":
    import scipy.special

import epibound.cli
from epibound import bayes, distributions, divergences, experiments

DEFERRED = ("scipy", "scipy.special", "scipy.integrate", "concurrent.futures.process")
work = Path(sys.argv[1])


def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = epibound.cli.main(list(argv))
    report = work / "report.json"
    text = report.read_text() if "--out" in argv else ""
    return [code, out.getvalue(), text]


def loaded():
    return [m for m in DEFERRED if m in sys.modules]


after = {"import": loaded()}
bound = ["bound", "--statement", "thm1", "--alpha", "0.15", "--out", str(work / "report.json")]
outputs = [cli(*bound, "--instance", str(work / "finite.json"))]
after["finite bound"] = loaded()
outputs.append(cli("verify", "--setup", str(work / "setup.json"), "--trials", "200"))
after["finite verify"] = loaded()
outputs.append(cli("oracle", "--instances", "20", "--seed", "3"))
after["oracle"] = loaded()
config = experiments.ExperimentConfig.negative_transfer("pos", [2], sims=2, master_seed=5)
outputs.append(experiments.records_to_csv(experiments.run_negative_transfer_experiment(config)))
after["negative-transfer row"] = loaded()
outputs.append(cli(*bound, "--instance", str(work / "ig.json")))
config = experiments.ExperimentConfig.neighborhood([0.3], sims=1, master_seed=5, kl_samples=50)
outputs.append(experiments.records_to_csv(experiments.run_neighborhood_experiment(config)))
after["ig bound and neighborhood row"] = loaded()

import scipy.special

direct = {"distributions.ndtr": distributions.ndtr is scipy.special.ndtr,
          "divergences.ndtr": divergences.ndtr is scipy.special.ndtr,
          "bayes.ndtr": bayes.ndtr is scipy.special.ndtr,
          "distributions.gammainccinv": distributions.gammainccinv is scipy.special.gammainccinv,
          "experiments.ndtri": experiments.ndtri is scipy.special.ndtri}
print(json.dumps({"after": after, "outputs": outputs, "direct": direct}))
"""


class TestColdStart:
    def test_cli_leaves_scipy_integrate_unloaded(self, tmp_path):
        (tmp_path / "finite.json").write_text(json.dumps(WORKED_INSTANCE))
        (tmp_path / "ig.json").write_text(json.dumps(IG_INSTANCE))
        (tmp_path / "setup.json").write_text(
            json.dumps({**WORKED_INSTANCE, "statement_id": "thm1", "alpha": 0.15}))
        run = subprocess.run([sys.executable, "-c", LAZY_QUAD_SCRIPT, str(tmp_path)],
                             check=True, capture_output=True, text=True)
        out = json.loads(run.stdout)
        assert out["codes"] == [0, 0, 0]
        assert out["after_cli"] is False
        assert out["after_quad"] is True
        # the first quadrature rebinds each module's quad to scipy's
        assert out["rebound"] == [True, True]
        assert out["lazy"] == out["direct"]

    def test_scipy_and_process_pool_load_at_first_use(self, tmp_path):
        (tmp_path / "finite.json").write_text(json.dumps(WORKED_INSTANCE))
        (tmp_path / "ig.json").write_text(json.dumps(IG_INSTANCE))
        (tmp_path / "setup.json").write_text(
            json.dumps({**WORKED_INSTANCE, "statement_id": "thm1", "alpha": 0.15}))
        cold, warm = (
            json.loads(subprocess.run([sys.executable, "-c", DEFERRED_SCRIPT, str(tmp_path), mode],
                                      check=True, capture_output=True, text=True).stdout)
            for mode in ("cold", "warm"))
        after = cold["after"]
        # the neighborhood row's posterior mass passes quad's first step as arrays: no quadrature
        assert after.pop("ig bound and neighborhood row") == ["scipy", "scipy.special"]
        assert after == dict.fromkeys(after, [])
        assert [o[0] for o in cold["outputs"] if isinstance(o, list)] == [0, 0, 0, 0]
        assert cold["outputs"] == warm["outputs"]
        # the first call rebinds each module's name to scipy's ufunc: no wrapper is left
        assert cold["direct"] == dict.fromkeys(cold["direct"], True)
        assert warm["direct"] == cold["direct"]


class TestVerifyCommand:
    def test_pass_run(self, tmp_path, capsys):
        setup = {
            "predictor": WORKED_INSTANCE["predictor"],
            "source": WORKED_INSTANCE["source"],
            "target": WORKED_INSTANCE["target"],
            "model": WORKED_INSTANCE["model"],
            "statement_id": "thm1",
            "alpha": 0.15,
        }
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(setup))
        code = main(["verify", "--setup", str(path), "--trials", "500", "--seed", "2"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True and out["empirical_freq"] == 0.0

    @pytest.mark.parametrize("key, value, message", [
        ("statement_id", None, "is missing key 'statement_id'"),
        ("alpha", None, "is missing key 'alpha'"),
        ("alpha", "null", "is malformed: "),
        ("alpha", [0.15], "is malformed: "),
        ("epsilon", "tenth", "is malformed: "),
        ("b_source", "half", "is malformed: "),
    ], ids=["no-statement", "no-alpha", "null-alpha", "list-alpha", "str-epsilon", "str-bS"])
    def test_malformed_setup_is_usage_error(self, key, value, message, tmp_path, capsys):
        setup = {**WORKED_INSTANCE, "statement_id": "cor_eps", "alpha": 0.15, "epsilon": 0.1}
        if value is None:
            del setup[key]
        else:
            setup[key] = None if value == "null" else value
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(setup))
        assert main(["verify", "--setup", str(path), "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path} {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["experiment", "neighborhood", "--epsilons", "nan"],
        ["experiment", "neighborhood", "--epsilons", "0.2", "--source-tasks", "0"],
        ["experiment", "neighborhood", "--epsilons", "1.5", "--sims", "1", "--seed", "1"],
        ["experiment", "neighborhood", "--epsilons", "0.2", "--kl-samples", "0"],
        ["experiment", "negative-transfer", "--scenario", "pos", "--n-grid", "1",
         "--kl-samples", "0"],
        ["oracle", "--instances", "0"],
        ["oracle", "--instances", "2", "--max-outcomes", "1"],
    ])
    def test_malformed_config_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out = "out" if argv[0] == "experiment" else "report.json"
        assert main([*argv, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["oracle", "--instances", "2"],
        ["experiment", "neighborhood", "--epsilons", "0.2", "--sims", "1"],
        ["experiment", "negative-transfer", "--scenario", "pos", "--n-grid", "1", "--sims", "1"],
    ], ids=["oracle", "neighborhood", "negative-transfer"])
    def test_threads_below_one_is_usage_error(self, argv, threads, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out = "out" if argv[0] == "experiment" else "report.json"
        assert main([*argv, "--threads", threads, "--out", out]) == 2
        captured = capsys.readouterr()
        assert f"argument --threads: must be at least 1, got {threads}" in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["bound", "--statement", "thm1", "--alpha", "0.15"],
        ["oracle", "--instances", "3", "--seed", "1"],
    ], ids=["bound", "oracle"])
    def test_unwritable_out_prints_no_result(self, argv, instance_file, tmp_path, capsys):
        if argv[0] == "bound":
            argv = [*argv, "--instance", str(instance_file)]
        out_dir = tmp_path / "taken"
        out_dir.mkdir()
        assert main([*argv, "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_unknown_flag(self, capsys):
        assert main(["oracle", "--bogus"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["fit"]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_bad_alpha_list(self, capsys):
        assert main(["oracle", "--alphas", "0.1,zebra"]) == 2


class TestWriteOutputDirectories:
    """Parents are made only when the open finds one missing."""

    def test_only_a_missing_parent_makes_directories(self, tmp_path, monkeypatch):
        calls = []
        real_mkdir = os.mkdir

        def counting_mkdir(*args, **kwargs):
            calls.append(Path(args[0]))
            return real_mkdir(*args, **kwargs)

        monkeypatch.setattr(os, "mkdir", counting_mkdir)
        path = tmp_path / "a" / "b" / "report.json"
        write_output(path, "first")
        assert path.read_text() == "first" and set(calls) == {path.parent, path.parent.parent}
        made = len(calls)
        write_output(path, "second")
        write_output(tmp_path / "other.json", "new file in an existing directory")
        assert len(calls) == made and path.read_text() == "second"

    def test_out_under_a_regular_file_is_usage_error(self, instance_file, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file")
        out = taken / "report.json"
        argv = ["bound", "--statement", "thm1", "--instance", str(instance_file),
                "--alpha", "0.15", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 20] Not a directory: '{out}'\n"
        assert taken.read_text() == "a file"


class TestWriteOutput:
    def test_shorter_rewrite_leaves_only_new_bytes(self, tmp_path):
        path = tmp_path / "a" / "b" / "report.json"
        write_output(path, "x" * 4096)
        inode = path.stat().st_ino
        write_output(path, "short\n")
        assert path.read_bytes() == b"short\n"
        assert path.stat().st_ino == inode

    def test_writes_through_symlink(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_bytes(b"old contents, longer than the new ones")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        write_output(link, "new")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"new"

    def test_writes_to_a_device(self):
        write_output(os.devnull, "a device cannot be cut to length")

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_output(tmp_path / "new.json", "{}")
        finally:
            os.umask(old)
        assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("argv", [
        ["bound", "--statement", "thm1", "--alpha", "0.15", "--out", "report.json"],
        ["oracle", "--instances", "5", "--seed", "2", "--out", "report.json"],
        ["experiment", "neighborhood", "--epsilons", "0.2", "--sims", "2", "--seed", "3",
         "--out", "out"],
    ], ids=["bound", "oracle", "experiment"])
    def test_bytes_equal_plain_text_write(self, argv, instance_file, tmp_path, monkeypatch, capsys):
        if argv[0] == "bound":
            argv = [*argv, "--instance", str(instance_file)]
        monkeypatch.chdir(tmp_path)
        written = []

        def recording_write(path, text):
            written.append((Path(path), text))
            write_output(path, text)

        monkeypatch.setattr(cli, "write_output", recording_write)
        monkeypatch.setattr(experiments, "write_output", recording_write)
        assert main(argv) == 0
        for path, _ in written:  # a longer stale file must be cut back on the rerun
            path.write_bytes(b"stale " * 10_000)
        written.clear()
        assert main(argv) == 0
        assert len(written) == 2
        for path, text in written:
            plain = tmp_path / "plain"
            plain.write_text(text)
            assert path.read_bytes() == plain.read_bytes()

    def test_never_truncates_on_open(self, instance_file, tmp_path, monkeypatch, capsys):
        flags = []
        real_open = os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        argv = ["bound", "--statement", "thm1", "--instance", str(instance_file),
                "--alpha", "0.15", "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0 and main(argv) == 0
        assert len(flags) == 4 and not any(f & os.O_TRUNC for f in flags)

    def test_library_has_one_writer(self):
        for path in Path(epibound.__file__).parent.rglob("*.py"):
            text = path.read_text()
            assert "write_text" not in text and "O_TRUNC" not in text, path
