"""The four workloads: seeded inputs, one library call per spec, output checks.

A workload yields its calls in groups.  The timed loop only stops between
groups; every group of ``bound-verify`` is one full request cycle and every
group of ``oracle-suite`` one pass over its pool, so each run sees the same
mix.  The experiment and oracle workloads draw their calls from a pool of
numbered inputs whose outputs are recorded in ``reference.json``: the seed
sets the order in which a run draws them, and each output is checked
against its entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import epibound.cli
from epibound import experiments, oracle
from epibound.bounds import BoundReport, ModelClass, evaluate_bound
from epibound.distributions import Gaussian, InverseGammaGaussianTasks
from epibound.experiments import (
    ExperimentConfig,
    records_to_csv,
    setup_from_dict,
)

POOL = 2048
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Spec:
    key: int             # pool index, or request index inside a bound-verify cycle
    items: int           # instances, rows or requests this call completes
    args: object = None  # what the library call receives
    meta: dict = field(default_factory=dict)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


class Workload:
    """One workload: its inputs, one library call per spec, and the output checks."""

    name = ""
    min_groups = 1    # the timed loop runs at least this many groups
    kernel = "mixed"  # the calibration kernel that tracks this workload's speed

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self, seed: int) -> None:
        """Write whatever input files the calls read."""

    def plan(self, seed: int):
        """Yield the seeded groups of specs, without end."""
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def trace_calls(self, seconds: float) -> int:
        """How many calls, from the start of the plan, the fixed traced list holds."""
        raise NotImplementedError

    def call(self, spec: Spec):
        raise NotImplementedError

    def reduce(self, output) -> dict:
        """What the checks need from one call's output, taken before the next call.

        Keeping whole outputs alive would grow the heap that the cyclic
        garbage collector walks during later calls.
        """
        raise NotImplementedError

    def fingerprint(self, rec: dict) -> str:
        return rec["digest"]

    def check(self, spec: Spec, rec: dict, ref: dict) -> str | None:
        """None when the output matches its reference, else what differs."""
        raise NotImplementedError

    def stats(self, calls) -> dict:
        return {}

    def size(self) -> dict:
        raise NotImplementedError


class PoolWorkload(Workload):
    """Calls drawn without replacement from a seeded permutation of the pool."""

    trace_calls_per_s = 1.0   # fixed traced work: seconds * this / 3 calls
    pool = POOL

    def spec(self, k: int) -> Spec:
        raise NotImplementedError

    def plan(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield from self.groups(rng.permutation(self.pool))

    def groups(self, order):
        """One group per call: the timed loop may stop after any call."""
        return ([self.spec(int(k))] for k in order)

    def warmup(self) -> None:
        self.call(self.spec(0))

    def trace_calls(self, seconds: float) -> int:
        return max(1, round(seconds * self.trace_calls_per_s / 3))

    def size(self) -> dict:
        return {"pool": self.pool, "items_per_call": self.spec(0).items}


class OracleSuite(PoolWorkload):
    """``run_suite`` over 10 instances, two of each constraint mode.

    The pool is the 10,240-instance suite of criterion 1, and a run makes
    whole passes over it.  Which calls are slowest depends on the instances
    they draw, so a run that sampled part of the pool would move p99 with
    the sample; a whole pass gives every run the same calls.
    """

    name = "oracle-suite"
    instances = 10
    pool = 1024
    trace_calls_per_s = 60.0

    def groups(self, order):
        return [[self.spec(int(k)) for k in order]]

    def spec(self, k):
        return Spec(k, self.instances, 1_000_000 + k)

    def call(self, spec):
        return oracle.run_suite(self.instances, spec.args, oracle.DEFAULT_ALPHAS,
                                max_outcomes=6, threads=1)

    def reduce(self, report):
        reps = [report.statements[s] for s in sorted(report.statements)]
        n_alphas = len(report.alphas)
        return {
            "digest": digest(report.to_json()),
            "trials": [r.trials for r in reps],
            "violations": [r.violations for r in reps],
            "skips": sum(r.skips for r in reps),
            "verified": sum(r.trials / n_alphas if r.statement_id in oracle.PROB_STATEMENTS
                            else r.trials for r in reps),
        }

    @staticmethod
    def reference_entry(rec: dict) -> list:
        return [rec["digest"], rec["trials"], rec["violations"]]

    def check(self, spec, rec, ref):
        got, want = self.reference_entry(rec), ref["entries"][spec.key]
        if got[1:] != want[1:]:
            return f"per-statement trials/violations {got[1:]} != reference {want[1:]}"
        if got[0] != want[0]:
            return f"report digest {got[0]} != reference {want[0]}"
        return None

    def stats(self, calls):
        verified = sum(c.out["verified"] for c in calls)
        skips = sum(c.out["skips"] for c in calls)
        return {
            "oracle.statement_trials": sum(sum(c.out["trials"]) for c in calls),
            "oracle.statement_skips": skips,
            "oracle.violations": sum(sum(c.out["violations"]) for c in calls),
            "oracle.useful_ratio": verified / (verified + skips) if verified + skips else 0.0,
        }


class ExperimentWorkload(PoolWorkload):
    runner = ""  # the experiments function, looked up per call so tracing sees it

    def call(self, spec):
        return getattr(experiments, self.runner)(spec.args)

    def reduce(self, records):
        bad = next((f"sim={r.sim} n={r.n}" for r in records if r.looseness is not None
                    and abs(r.looseness + r.C + r.D - r.epistemic_error) > 1e-12), None)
        return {"digest": digest(records_to_csv(records)), "rows": len(records),
                "bad_row": bad}

    @staticmethod
    def reference_entry(rec: dict) -> str:
        return rec["digest"]

    def check(self, spec, rec, ref):
        if rec["rows"] != spec.items:
            return f"{rec['rows']} rows returned, {spec.items} requested"
        if rec["bad_row"] is not None:
            return f"row {rec['bad_row']}: looseness + C + D != epistemic error"
        if rec["digest"] != ref["entries"][spec.key]:
            return f"CSV digest {rec['digest']} != reference {ref['entries'][spec.key]}"
        return None

    def stats(self, calls):
        return {"experiments.rows_dropped": sum(c.spec.items - c.out["rows"] for c in calls)}


class NegativeTransfer(ExperimentWorkload):
    """One (scenario, n) grid point of criterion 6 per call, ``sims`` rows each."""

    name = "negative-transfer"
    kernel = "array"
    scenarios = ("pos", "neg", "posneg")
    n_grid = (1, 2, 5, 10, 20, 50)
    sims = 2
    trace_calls_per_s = 50.0
    runner = "run_negative_transfer_experiment"

    def spec(self, k):
        scenario = self.scenarios[k % 3]
        n = self.n_grid[(k // 3) % len(self.n_grid)]
        config = ExperimentConfig.negative_transfer(scenario, (n,), sims=self.sims,
                                                    master_seed=2_000_000 + k)
        return Spec(k, self.sims, config)


class Neighborhood(ExperimentWorkload):
    """The epsilon sweep of criterion 5 with ``sims`` rows per epsilon per call."""

    name = "neighborhood"
    epsilons = (0.05, 0.15, 0.3, 0.5)
    sims = 5
    trace_calls_per_s = 80.0
    runner = "run_neighborhood_experiment"

    def spec(self, k):
        config = ExperimentConfig.neighborhood(self.epsilons, sims=self.sims,
                                               master_seed=3_000_000 + k)
        return Spec(k, self.sims * len(self.epsilons), config)


# statements whose preconditions each oracle constraint mode guarantees
MODE_STATEMENTS = {
    "none": ("thm1", "thm2", "cor_l1", "cor_hellinger", "cor_ce"),
    "no_shift": ("lemma2", "thm1", "thm2", "cor_l1", "cor_hellinger", "cor_ce"),
    "perfect_no_shift": ("lemma1", "lemma2", "thm1", "thm2", "cor_l1", "cor_hellinger",
                         "cor_ce"),
    "assumption1": ("thm1", "thm2", "cor_eps", "cor_l1", "cor_hellinger", "cor_ce"),
    "assumption2": ("thm1", "thm2", "cor_eps", "cor_eps_dist", "cor_l1", "cor_hellinger",
                    "cor_ce"),
}
CONTINUOUS_STATEMENTS = ("thm1", "thm2", "cor_l1", "cor_hellinger")
EPSILON_STATEMENTS = ("cor_eps", "cor_eps_dist")


def _finite_instance(seed: int, mode: str) -> dict:
    inst = oracle.generate_instance(seed, oracle.InstanceConfig(constraint=mode))
    return inst.to_dict()


def _ig_instance(rng: np.random.Generator) -> dict:
    """IG-Gaussian source and target tasks, a Gaussian predictor, 3 model members."""
    mean = float(rng.uniform(0.5, 1.5))
    source = InverseGammaGaussianTasks(mean, float(rng.uniform(15, 25)), float(rng.uniform(8, 12)))
    target = InverseGammaGaussianTasks(mean + float(rng.uniform(-0.5, 0.5)),
                                       float(rng.uniform(15, 25)), float(rng.uniform(8, 12)))
    predictor = Gaussian(mean + float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.7, 1.0)))
    model = ModelClass.gaussian_mean_grid(mean - 0.5, mean + 0.5, 0.5, 0.8)
    return {"model": model.to_dict(), "predictor": predictor.to_dict(),
            "source": source.to_dict(), "target": target.to_dict()}


def verify_setups() -> list[dict]:
    """The fixed pool of ``verify`` setups whose exit codes reference.json records."""
    setups = []
    for v in range(BoundVerify.verify_finite):
        mode = oracle.CONSTRAINT_MODES[v % 5]
        inst = _finite_instance(5_000_000 + v, mode)
        statement = MODE_STATEMENTS[mode][v % len(MODE_STATEMENTS[mode])]
        setup = {k: inst[k] for k in ("model", "predictor", "source", "target")}
        setup.update(statement_id=statement, alpha=oracle.DEFAULT_ALPHAS[v % 10],
                     trials=2000, seed=v)
        if statement in EPSILON_STATEMENTS:
            setup["epsilon"] = inst["epsilon"]
        setups.append(setup)
    rng = np.random.default_rng(6_000_000)
    for v in range(BoundVerify.verify_continuous):
        setup = _ig_instance(rng)
        setup.update(statement_id=CONTINUOUS_STATEMENTS[v % 4], alpha=0.2, trials=8, seed=v)
        setups.append(setup)
    return setups


class BoundVerify(Workload):
    """A closed loop of one client sending in-process ``epibound`` CLI requests.

    Each cycle of ``cycle`` requests holds a fixed mix, in seeded order:
    ``ig_bounds`` bound requests on IG-Gaussian task pairs, one continuous and
    ``verify_per_cycle - 1`` finite verify requests, and finite bound requests
    for the rest.
    """

    name = "bound-verify"
    cycle = 200
    ig_bounds = 4
    verify_per_cycle = 9
    finite_instances = 120
    ig_instances = 6
    verify_finite = 16
    verify_continuous = 4
    min_groups = 5  # >= 1000 requests, so p99 has at least 10 requests beyond it

    def __init__(self, work_dir: Path):
        super().__init__(work_dir)
        self.out = work_dir / "report.json"
        self._verify_reports: dict = {}

    def _write(self, name: str, data: dict) -> str:
        path = self.work_dir / name
        path.write_text(json.dumps(data))
        return str(path)

    def setup(self, seed: int) -> None:
        # fixed instance pools: the seed picks instances, statements and alphas,
        # so the latency mix, and with it p50 and p99, is the same for every seed
        self.work_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(7_000_000)
        self.finite = []
        for i in range(self.finite_instances):
            mode = oracle.CONSTRAINT_MODES[i % 5]
            inst = _finite_instance(int(rng.integers(2**62)), mode)
            self.finite.append((self._write(f"finite_{i}.json", inst), mode, inst["epsilon"]))
        self.ig = [self._write(f"ig_{i}.json", _ig_instance(rng)) for i in range(self.ig_instances)]
        self.setups = verify_setups()
        self.verify = [self._write(f"verify_{v}.json", s) for v, s in enumerate(self.setups)]

    def _bound(self, key, rng, path, statements, epsilon=None, kind="finite"):
        statement = str(rng.choice(statements))
        argv = ["bound", "--statement", statement, "--instance", path,
                "--alpha", repr(float(rng.choice(oracle.DEFAULT_ALPHAS))), "--out", str(self.out)]
        if statement in EPSILON_STATEMENTS:
            argv += ["--epsilon", repr(epsilon)]
        return Spec(key, 1, argv, {"kind": kind})

    def verify_spec(self, key, v):
        s = self.setups[v]
        argv = ["verify", "--setup", self.verify[v], "--trials", str(s["trials"]),
                "--seed", str(s["seed"])]
        return Spec(key, 1, argv, {"kind": "verify", "verify": v})

    def plan(self, seed: int):
        rng = np.random.default_rng(seed)
        n_verify_finite = self.verify_per_cycle - 1
        while True:
            kinds = (["ig"] * self.ig_bounds + ["verify_continuous"]
                     + ["verify_finite"] * n_verify_finite)
            kinds += ["finite"] * (self.cycle - len(kinds))
            group = []
            for key, kind in enumerate(rng.permutation(kinds)):
                if kind == "finite":
                    path, mode, eps = self.finite[int(rng.integers(len(self.finite)))]
                    group.append(self._bound(key, rng, path, MODE_STATEMENTS[mode], eps))
                elif kind == "ig":
                    path = self.ig[int(rng.integers(len(self.ig)))]
                    group.append(self._bound(key, rng, path, CONTINUOUS_STATEMENTS, kind="ig"))
                elif kind == "verify_finite":
                    group.append(self.verify_spec(key, int(rng.integers(self.verify_finite))))
                else:
                    v = self.verify_finite + int(rng.integers(self.verify_continuous))
                    group.append(self.verify_spec(key, v))
            yield group

    def warmup(self) -> None:
        path, _, _ = self.finite[0]
        self.call(Spec(0, 1, ["bound", "--statement", "thm1", "--instance", path,
                              "--alpha", "0.1", "--out", str(self.out)]))

    def trace_calls(self, seconds: float) -> int:
        return self.cycle * max(1, round(seconds / 2.5 / 3))

    def call(self, spec: Spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = epibound.cli.main(spec.args)
        report = self.out.read_text() if spec.args[0] == "bound" and code == 0 else None
        return code, out.getvalue(), err.getvalue(), report

    def reduce(self, output):
        code, out, err, report = output
        return {"code": code, "out": out, "err": err, "report": report,
                "digest": digest(f"{code}\n{out}\n{err}\n{report}")}

    def _verify_report(self, v: int) -> BoundReport:
        """evaluate_bound on a verify setup, as ``monte_carlo_verify`` calls it."""
        if v not in self._verify_reports:
            s = setup_from_dict(self.setups[v])
            self._verify_reports[v] = evaluate_bound(
                s["statement_id"], model=s.get("model") or ModelClass((s["predictor"],)),
                predictor=s["predictor"], source=s["source"], target=s["target"],
                alpha=float(s["alpha"]), epsilon=s.get("epsilon"))
        return self._verify_reports[v]

    def check(self, spec, rec, ref):
        code, out, err, report = rec["code"], rec["out"], rec["err"], rec["report"]
        if spec.meta["kind"] == "verify":
            v = spec.meta["verify"]
            want = ref["verify_exit"][v]
            if code != want:
                return f"verify setup {v}: exit {code}, expected {want}: {err.strip()}"
            result = json.loads(out)
            if code != (0 if result["pass"] else 1):
                return f"verify setup {v}: exit {code} disagrees with pass={result['pass']}"
            margin, delta = self._verify_report(v).rederive()
        else:
            if code != 0:
                return f"{' '.join(spec.args)}: exit {code}, expected 0: {err.strip()}"
            row = out.splitlines()[1].split(",")
            result = {"margin": float(row[6]), "delta": float(row[7])}
            margin, delta = BoundReport(**json.loads(report)).rederive()
        for name, want in (("margin", margin), ("delta", delta)):
            if not math.isclose(result[name], want, rel_tol=1e-12, abs_tol=1e-15):
                return f"{' '.join(spec.args)}: printed {name} {result[name]!r} != rederived {want!r}"
        return None

    def size(self) -> dict:
        return {"requests_per_cycle": self.cycle, "ig_bounds_per_cycle": self.ig_bounds,
                "verify_per_cycle": self.verify_per_cycle, "min_cycles": self.min_groups,
                "finite_instances": self.finite_instances, "ig_instances": self.ig_instances,
                "verify_setups": self.verify_finite + self.verify_continuous}


WORKLOADS = {w.name: w for w in (OracleSuite, NegativeTransfer, Neighborhood, BoundVerify)}
