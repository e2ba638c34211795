"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``.

They start the benchmark in subprocesses with short runs and take about
a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("oracle-suite", "negative-transfer", "neighborhood", "bound-verify")
EXACT_STATS = ("calls", "comp_evals", "integrand_evals", "samples", "components")
SECONDS = "3"


def bench(*args, cwd=ROOT) -> tuple[subprocess.CompletedProcess, dict, dict]:
    """Run run.py; returns the process, its run record and its result object."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    record = next((json.loads(ln[4:]) for ln in lines if ln.startswith("run ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return proc, record, result


@pytest.fixture(scope="module")
def traced_twice():
    """Each workload traced twice on one seed: [(record, result, layers.json), ...]."""
    runs = {}
    for w in WORKLOADS:
        runs[w] = []
        for _ in range(2):
            proc, record, result = bench("--workload", w, "--seed", "5", "--seconds", SECONDS,
                                         "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            layers = json.loads((ROOT / ".perfbench_work" / w / "layers.json").read_text())
            runs[w].append((record, result, layers))
    return runs


def test_benchmark_json_matches_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.LAYER_METRICS]


def test_traced_run_reports_every_layer_metric(traced_twice):
    names = {m.name for m in metrics.LAYER_METRICS}
    for w, runs in traced_twice.items():
        for record, result, _ in runs:
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == names, w


def test_each_wrapped_function_is_called_on_its_workload(traced_twice):
    for m in metrics.LAYER_METRICS:
        if m.span is None:
            continue
        for w in m.workloads:
            layers = traced_twice[w][0][2]
            assert layers.get(m.span, {}).get("calls", 0) > 0, (m.span, w)


def test_mixture_logpdf_dominates_negative_transfer_only(traced_twice):
    nt = traced_twice["negative-transfer"][0]
    share = nt[2]["distributions.GaussianMixture.logpdf"]["self_s"] / nt[0]["traced_wall_s"]
    assert share > 0.5
    nb = traced_twice["neighborhood"][0][1]["metrics"]
    assert nb["distributions.GaussianMixture.logpdf.self_s"]["value"] == 0


def test_exact_counters_and_outputs_repeat(traced_twice):
    for w, ((rec_a, res_a, lay_a), (rec_b, res_b, lay_b)) in traced_twice.items():
        assert rec_a["outputs_digest"] == rec_b["outputs_digest"], w
        assert rec_a["traced_outputs_digest"] == rec_a["outputs_digest"], w
        for name, m in res_a["metrics"].items():
            if name.rsplit(".", 1)[-1] in EXACT_STATS or name == "oracle.statement_trials":
                assert m["value"] == res_b["metrics"][name]["value"], (w, name)
        assert {k: v["calls"] for k, v in lay_a.items()} == {k: v["calls"] for k, v in lay_b.items()}


def test_tracer_replaces_every_binding_and_keeps_classes():
    script = f"""
import inspect, sys
sys.path.insert(0, {str(HERE)!r})
from worker import load_epibound
import tracer
epibound = load_epibound()
from epibound import bounds, divergences, distributions
mods = [epibound] + [sys.modules["epibound." + m] for m in tracer.MODULES]
originals = tracer.public_functions({{m: sys.modules["epibound." + m] for m in tracer.MODULES}})
before = [(mod, attr) for mod in mods for attr, obj in vars(mod).items()
          if inspect.isfunction(obj) and obj in originals]
cls = distributions.Categorical
tracer.install(tracer.Tracer(), epibound)
assert all(getattr(getattr(mod, attr), "__wrapped_by_tracer__", False) for mod, attr in before)
assert bounds.tv_exact is divergences.tv_exact is epibound.tv_exact
assert distributions.Categorical is cls and isinstance(cls([0.5, 0.5]), epibound.Categorical)
print(len(before))
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 100


def test_untraced_run_reports_end_to_end_metrics():
    proc, record, result = bench("--workload", "neighborhood", "--seed", "2",
                                 "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("nproc", "versions", "src_lines", "src_sha256", "seed", "size",
                "tail_percentile", "tail_samples"):
        assert key in record


def _copy_tree(dst: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(HERE, dst / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_sources(tmp_path):
    _copy_tree(tmp_path, with_src=False)
    proc, _, result = bench("--workload", "oracle-suite", "--seed", "1", "--seconds", "1",
                            cwd=tmp_path)
    assert proc.returncode != 0 and not result


def test_mismatch_against_reference_fails_the_run(tmp_path):
    _copy_tree(tmp_path, with_src=True)
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["oracle-suite"]["entries"] = [["0" * 16, *e[1:]] for e in ref["oracle-suite"]["entries"]]
    ref_path.write_text(json.dumps(ref))
    proc, _, result = bench("--workload", "oracle-suite", "--seed", "1", "--seconds", "1",
                            cwd=tmp_path)
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert "report digest" in proc.stderr
