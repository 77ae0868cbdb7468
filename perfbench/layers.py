"""Per-layer metrics from the spans of a traced run.

Every name below is computed on every workload; a layer a workload never
reaches reads 0 (``integrators`` on ``table_6r``, for instance).  Times
named ``*_us``/``*_ms`` per function are self time per call: the span's
duration minus the spans it opened.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("se3", "model", "kinematics", "dynamics", "integrators", "cli")
KERNELS = ("exp_se3", "pose_compose", "pose_inverse", "adjoint", "lie_bracket")
TABLE_OPS = ("fk", "fk_twists", "jacobian", "idyn")
SIM_FORMS = ("state", "momentum")
REPORT_CALLS = ("dynamics.kinetic_energy", "dynamics.gravity_potential",
                "dynamics.spatial_momenta", "kinematics.fk")
RHS_CALLS = ("dynamics.fdyn", "dynamics.momentum_rhs")
# metric -> (span label, scale of the per-call self time)
SELF_PER_CALL = {
    "kinematics.fk_us": ("kinematics.fk", 1e6),
    "kinematics.fk_body_form_us": ("kinematics.fk_body_form", 1e6),
    "kinematics.twists_us": ("kinematics.twists", 1e6),
    "kinematics.jacobian_us": ("kinematics.jacobian", 1e6),
    **{f"kinematics.jerks_ms.{r}": (f"kinematics.jerks.{r}", 1e3)
       for r in ("body", "spatial", "hybrid")},
    **{f"dynamics.idyn_us.{r}": (f"dynamics.idyn.{r}", 1e6)
       for r in ("body", "spatial", "hybrid")},
    "dynamics.fdyn_us": ("dynamics.fdyn", 1e6),
    "dynamics.mass_matrix_us": ("dynamics.mass_matrix", 1e6),
    "dynamics.momentum_rhs_us": ("dynamics.momentum_rhs", 1e6),
    **{f"dynamics.christoffel_ms.{v}": (f"dynamics.christoffel.{v}", 1e3)
       for v in ("standard", "binet")},
}


def span_metrics(table, rounds, rows, steps, speed=1.0):
    """Layer metrics of ``rounds`` traced rounds over ``rows`` table rows
    and ``steps`` simulation steps per simulate operation.  Measured times
    are multiplied by ``speed`` (reference seconds per measured second)."""
    labels, parents = table.labels, table.parents
    calls = defaultdict(int)
    self_total = defaultdict(float)
    layer_self = defaultdict(float)
    kernel_calls = defaultdict(int)   # (kernel, "row" | "step") -> calls
    sims = {f: {"n": 0, "self": 0.0, "dur": 0.0, "report": 0.0, "rhs": 0}
            for f in SIM_FORMS}
    root_kind = {}
    for i, lab in enumerate(labels):
        p = parents[i]
        if p < 0:
            op = lab.split(".", 1)[1]
            root_kind[i] = ("row" if op in TABLE_OPS
                            else "step" if op.startswith("sim_") else None)
        calls[lab] += 1
        self_total[lab] += table.self_time[i]
        layer_self[table.layer(i)] += table.self_time[i]
        kind = root_kind[table.root[i]]
        if kind and lab.startswith("se3."):
            kernel_calls[(lab[4:], kind)] += 1
        if lab.startswith("integrators.chain_simulate."):
            sim = sims[lab.rsplit(".", 1)[1]]
            sim["n"] += 1
            sim["self"] += table.self_time[i]
            sim["dur"] += table.duration[i]
        if p >= 0 and labels[p].startswith("integrators.chain_simulate."):
            sim = sims[labels[p].rsplit(".", 1)[1]]
            if lab in REPORT_CALLS:
                sim["report"] += table.duration[i]
            elif lab in RHS_CALLS:
                sim["rhs"] += 1

    m = {}
    row_units = rows * rounds if any(k == "row" for k in root_kind.values()) else 0
    step_units = steps * (sims["state"]["n"] + sims["momentum"]["n"])
    for k in KERNELS:
        m[f"se3.calls.{k}_per_row"] = kernel_calls[(k, "row")] / row_units if row_units else 0.0
        m[f"se3.calls.{k}_per_step"] = (kernel_calls[(k, "step")] / step_units
                                        if step_units else 0.0)
    for name, (label, scale) in SELF_PER_CALL.items():
        m[name] = speed * scale * self_total[label] / calls[label] if calls[label] else 0.0
    for form, sim in sims.items():
        n_steps = steps * sim["n"]
        per_step = speed * 1e6 / n_steps if n_steps else 0.0
        m[f"integrators.step_self_us.{form}"] = sim["self"] * per_step
        m[f"integrators.report_us.{form}"] = sim["report"] * per_step
        m[f"integrators.report_share.{form}"] = sim["report"] / sim["dur"] if sim["dur"] else 0.0
        m[f"integrators.rhs_calls_per_step.{form}"] = sim["rhs"] / n_steps if n_steps else 0.0
    for layer in LAYERS:
        m[f"{layer}.busy_ms"] = speed * 1e3 * layer_self[layer] / rounds
    return m, speed * self_total["cli.main"]
