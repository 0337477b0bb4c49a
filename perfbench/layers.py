"""Per-layer metrics of a traced pass, and how they are combined over passes.

``PER_LAYER`` lists every metric with its unit and whether it is a count,
which must repeat exactly between passes and between runs with one seed,
or a time, which is reported as the median over traced passes.
"""

from __future__ import annotations

import statistics

from spans import COMPUTED_BYTES_PER_NODE_STEP, LAYERS

COUNT, TIME = "count", "time"


def _calls_self(prefix):
    return [(f"{prefix}.calls", "count", COUNT), (f"{prefix}.self_s", "s", TIME)]


PER_LAYER = (
    [
        ("kernels.adaptive_simpson.calls", "count", COUNT),
        ("kernels.adaptive_simpson.f_evals", "count", COUNT),
        ("kernels.adaptive_simpson.self_s", "s", TIME),
        *_calls_self("kernels.kernel_G"),
        ("kernels.profile_F.points", "count", COUNT),
        ("kernels.profile_F.self_s", "s", TIME),
        ("initial_data.eval.calls", "count", COUNT),
        ("initial_data.eval.points", "count", COUNT),
        ("initial_data.eval.self_s", "s", TIME),
        ("initial_data.eval.scalar_frac", "ratio", COUNT),
        ("semigroup.scaled_evolve_many.calls", "count", COUNT),
        ("semigroup.scaled_evolve_many.points", "count", COUNT),
        ("semigroup.scaled_evolve_many.nodes", "count", COUNT),
        ("semigroup.scaled_evolve_many.final_nodes_max", "count", COUNT),
        ("semigroup.scaled_evolve_many.cap_hits", "count", COUNT),
        ("semigroup.scaled_evolve_many.self_s", "s", TIME),
        ("semigroup.scaled_evolve_many.ns_per_point_node", "ns", TIME),
        *_calls_self("semigroup.scaled_evolve"),
        ("semigroup.evolve_on_grid.calls", "count", COUNT),
        ("semigroup.evolve_on_grid.points", "count", COUNT),
        ("semigroup.evolve_on_grid.self_s", "s", TIME),
        *_calls_self("semigroup.sliding_average"),
        *_calls_self("semigroup.rescaled_residual"),
        *_calls_self("profile_bounds.envelope_bound"),
        *_calls_self("profile_bounds.log_kernel_bound"),
        *_calls_self("profile_bounds.sup_profile_error"),
    ]
    + [
        m
        for solver in ("solve_cf", "solve_heat_fd")
        for m in (
            (f"curvature_flow.{solver}.node_steps", "count", COUNT),
            (f"curvature_flow.{solver}.self_s", "s", TIME),
            (f"curvature_flow.{solver}.node_steps_per_s", "1/s", TIME),
        )
    ]
    + [
        ("curvature_flow.curvature_heat_gap.self_s", "s", TIME),
        ("curvature_flow.flow_profile_error.self_s", "s", TIME),
        ("curvature_flow.computed_bytes_per_node_step", "B", COUNT),
        *_calls_self("experiments.run"),
        ("experiments.files_written", "count", COUNT),
        ("experiments.bytes_written", "B", COUNT),
        ("experiments.parse_config.self_s", "s", TIME),
        ("cli.main.self_s", "s", TIME),
    ]
    + [(f"{layer}.failures", "count", COUNT) for layer in LAYERS]
    + [("trace.overhead_frac", "ratio", TIME)]
)


def pass_values(tracer, failed_by_layer: dict) -> dict:
    """Every per-layer metric except trace.overhead_frac, for one traced pass."""
    c, s = tracer.counts, tracer.self_s
    out = {}
    for name, _, _ in PER_LAYER:
        head, _, stat = name.rpartition(".")
        out[name] = s.get(head, 0.0) if stat == "self_s" else c.get(name, 0.0)
    calls = c.get("initial_data.eval.calls", 0.0)
    out["initial_data.eval.scalar_frac"] = (
        c.get("initial_data.eval.scalar_calls", 0.0) / calls if calls else 0.0)
    many = "semigroup.scaled_evolve_many"
    point_nodes = c.get(many + ".point_nodes", 0.0)
    out[many + ".ns_per_point_node"] = (
        1e9 * s.get(many, 0.0) / point_nodes if point_nodes else 0.0)
    steps_total = bytes_total = 0.0
    for solver in ("solve_cf", "solve_heat_fd"):
        head = f"curvature_flow.{solver}"
        steps, busy = c.get(head + ".node_steps", 0.0), s.get(head, 0.0)
        out[head + ".node_steps_per_s"] = steps / busy if busy else 0.0
        steps_total += steps
        bytes_total += steps * COMPUTED_BYTES_PER_NODE_STEP[solver]
    out["curvature_flow.computed_bytes_per_node_step"] = (
        bytes_total / steps_total if steps_total else 0.0)
    for layer in LAYERS:
        out[f"{layer}.failures"] = float(failed_by_layer.get(layer, 0))
    return out


def combine(snapshots: list[dict], overhead: float) -> tuple[dict, list[str]]:
    """Counts from the first traced pass (any later pass must repeat them),
    times as the median over traced passes."""
    metrics, drift = {}, []
    for name, unit, kind in PER_LAYER:
        if name == "trace.overhead_frac":
            metrics[name] = (overhead, unit)
            continue
        values = [snap.get(name, 0.0) for snap in snapshots]
        if kind == COUNT:
            if any(v != values[0] for v in values[1:]):
                drift.append(f"{name}: {values}")
            first = values[0]
            metrics[name] = (int(first) if float(first).is_integer() else first, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    return metrics, drift
