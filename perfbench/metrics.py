"""Metric definitions: the end-to-end metrics and the traced per-layer metrics.

BENCHMARK.json lists the same names; ``tests/test_perfbench.py`` keeps the
two in step.  Each per-layer metric names the span it is read from, the
workloads on which its layer does real work, and the end-to-end metric it
should move there (see README.md for the reasoning).
"""

from __future__ import annotations

from dataclasses import dataclass

# name -> (unit, better)
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "request_p50_ms": ("ms", "lower"),
    "request_p99_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

OC, NT, NB, BV = "oracle-suite", "negative-transfer", "neighborhood", "bound-verify"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    span: str | None   # span name the value is read from; None for workload stats
    stat: str          # calls, busy_s, self_s, count, child_count or error:<type>
    workloads: tuple   # where the layer does work (its calls are nonzero there)
    moves: str         # the end-to-end metric it should move on those workloads
    better: str = "lower"


def _span(span: str, stats: str, workloads: tuple, moves: str, metric: str | None = None,
          counts: dict | None = None) -> list:
    """One LayerMetric per stat of ``span``; ``counts`` maps extra stat names to span stats."""
    base = metric or span
    out = [LayerMetric(f"{base}.{s}", STAT_UNITS[s], span, s, workloads, moves)
           for s in stats.split()]
    for name, stat in (counts or {}).items():
        out.append(LayerMetric(f"{base}.{name}", "count", span, stat, workloads, moves))
    return out


def _stat(name: str, unit: str, workloads: tuple, moves: str, better: str = "lower") -> LayerMetric:
    return LayerMetric(name, unit, None, name, workloads, moves, better)


LAYER_METRICS: list[LayerMetric] = [
    # distributions
    *_span("distributions.Categorical.__post_init__", "calls busy_s", (OC,), "items_per_s",
           metric="distributions.Categorical"),
    *_span("distributions.FiniteTaskDistribution.__post_init__", "calls", (OC,), "items_per_s",
           metric="distributions.FiniteTaskDistribution"),
    *_span("distributions.GaussianMixture.logpdf", "calls busy_s self_s", (NT,),
           "items_per_s", counts={"comp_evals": "count"}),
    *_span("distributions.barycenter", "calls busy_s", (NT, BV), "items_per_s"),
    *_span("distributions.InverseGammaGaussianTasks.reify", "calls", (NT, BV), "items_per_s",
           counts={"components": "count"}),
    *_span("distributions.sup_variance", "calls busy_s", (BV,), "request_p99_ms"),
    *_span("distributions.variance_at", "calls", (BV,), "request_p99_ms"),
    # divergences
    *_span("divergences.kl_mc", "calls busy_s", (NT, NB), "items_per_s",
           counts={"samples": "count"}),
    *_span("divergences.tv_upper_pinsker", "calls busy_s", (NT, NB), "items_per_s"),
    *_span("divergences.tv_exact", "calls busy_s", (BV,), "request_p99_ms"),
    *_span("divergences.quad", "calls busy_s", (BV,), "request_p99_ms",
           counts={"integrand_evals": "count"}),
    # bayes
    *_span("bayes.posterior_update", "calls busy_s", (NB, NT), "items_per_s"),
    *_span("bayes.posterior_predictive", "calls busy_s", (NB, NT), "items_per_s"),
    *_span("bayes.posterior_mass_near", "calls busy_s", (NB,), "items_per_s",
           counts={"integrand_evals": "child_count"}),
    # bounds
    *_span("bounds.evaluate_bound", "calls busy_s self_s", (BV,), "request_p50_ms"),
    LayerMetric("bounds.evaluate_bound.precondition_failures", "count", "bounds.evaluate_bound",
                "error:PreconditionViolated", (BV,), "request_p50_ms"),
    *_span("bounds.best_approximation", "calls busy_s", (BV,), "request_p99_ms"),
    # oracle
    *_span("oracle.generate_instance", "calls busy_s", (OC,), "items_per_s"),
    *_span("oracle.compute_components", "calls busy_s", (OC,), "items_per_s"),
    *_span("oracle.generate_theta_instance", "calls busy_s", (OC,), "items_per_s"),
    *_span("oracle.verify_theta_instance", "calls busy_s", (OC,), "items_per_s"),
    *_span("oracle.run_suite", "self_s", (OC,), "items_per_s"),
    _stat("oracle.statement_trials", "count", (OC,), "items_per_s", better="higher"),
    _stat("oracle.statement_skips", "count", (OC,), "items_per_s"),
    _stat("oracle.useful_ratio", "ratio", (OC,), "items_per_s", better="higher"),
    _stat("oracle.violations", "count", (OC,), "items_per_s"),
    # experiments
    *_span("experiments.sample_source_data", "calls busy_s", (NB, NT), "items_per_s"),
    *_span("experiments.target_task", "calls busy_s", (NT,), "items_per_s"),
    *_span("experiments.run_negative_transfer_experiment", "self_s", (NT,), "items_per_s"),
    *_span("experiments.run_neighborhood_experiment", "self_s", (NB,), "items_per_s"),
    *_span("experiments.monte_carlo_verify", "calls busy_s self_s", (BV,), "request_p99_ms"),
    _stat("experiments.rows_dropped", "count", (NB, NT), "items_per_s"),
    # cli
    *_span("cli.main", "calls busy_s self_s", (BV,), "request_p50_ms"),
    LayerMetric("cli.nonzero_exits", "count", "cli.main", "count", (BV,), "request_p50_ms"),
    # seeding
    *_span("seeding.derive_seed", "calls busy_s", (NB, OC), "items_per_s"),
    # the tracer itself
    _stat("tracing_overhead_frac", "ratio", (OC, NT, NB, BV), "none (measures the tracer)"),
]


def layer_values(summary: dict, stats: dict) -> dict:
    """Every per-layer metric from a tracer summary and the workload's own stats."""
    out = {}
    for m in LAYER_METRICS:
        if m.span is None:
            value = stats.get(m.name, 0)
        else:
            agg = summary.get(m.span)
            if agg is None:
                value = 0
            elif m.stat.startswith("error:"):
                value = agg["errors"].get(m.stat[len("error:"):], 0)
            else:
                value = agg[m.stat]
        out[m.name] = {"value": value, "unit": m.unit}
    return out
