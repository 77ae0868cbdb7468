"""Benchmark of the screwchain package, run from the root of a checkout.

    python3 perfbench/run.py --workload table_6r --seed 1 --seconds 20 --trace 0

Builds nothing: the package is imported from ``src/`` of the same
checkout.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
it carries the per-layer metrics instead, taken from a traced run.  The
exit code is 0 only when every output check passed, 1 when one failed,
2 when the checkout has no package to measure, and 3 when the metrics
computed differ from those BENCHMARK.json declares.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread and no row thread pool, set before numpy is imported,
    # so that no number depends on a thread setting.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    os.environ.pop("SCREWCHAIN_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from trace_spans import Tracer  # noqa: E402

REFERENCE = HERE / "reference.json"
WORKLOADS = ("table_6r", "sim_6r", "chain_16")
SETUP_REPEATS = 15
MIN_ROUNDS = 3
TIME_CAP_S = 120.0  # start no new round after this, so a run ends in time
MICRO_LOOPS, MICRO_REPEATS = 300, 7

# Fresh interpreter: import the package, then load the workload's model.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import screwchain
t1 = time.perf_counter()
screwchain.load_model(sys.argv[2])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""

# metric -> (operation, "rate" = units per second | "time" = seconds)
COMMAND_METRICS = {
    "fk_rows_per_s": ("fk", "rate"),
    "twists_rows_per_s": ("fk_twists", "rate"),
    "jacobian_rows_per_s": ("jacobian", "rate"),
    "idyn_rows_per_s": ("idyn", "rate"),
    "sim_steps_per_s": ("sim_state", "rate"),
    "sim_momentum_steps_per_s": ("sim_momentum", "rate"),
    "christoffel_s": ("christoffel", "time"),
    "christoffel_binet_s": ("christoffel_binet", "time"),
    "jerks_s": ("jerks", "time"),
}
NOTE_UNITS = {"raw_wall_s": "s", "speed": "ratio"}
OP_COUNTERS = ("frame_transforms_screw", "frame_transforms_tensor", "lie_brackets",
               "rotations_screw", "translations_screw")


class Tally:
    """Attempted and failed operations of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ops, where):
        for op in ops.values():
            self.attempted += 1
            if op.error:
                self.failed += 1
                print(f"FAIL {op.name} ({where}): {op.error}", file=sys.stderr)


def _import_package():
    src = ROOT / "src"
    if not (src / "screwchain" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import screwchain
    import screwchain.cli  # noqa: F401  (not imported by the package itself)

    if Path(screwchain.__file__).resolve().parent != (src / "screwchain").resolve():
        return None
    return screwchain


def machine(seed):
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "platform": platform.platform(), "seed": seed,
        "env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS", "SCREWCHAIN_THREADS",
                                               "PYTHONHASHSEED")},
    }


def measure_setup(model_path, repeats, clock):
    """Median import and model-load times of fresh interpreters, each at
    the reference machine speed of the calibration loops around it."""
    imports, loads = [], []
    before = clock.sample()
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
                              model_path], cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        import_s, load_s = (float(v) for v in out.stdout.split())
        after = clock.sample()
        scale = calibrate.REF_S / (0.5 * (before + after))
        before = after
        imports.append(import_s * scale)
        loads.append(load_s * scale)
    return statistics.median(imports), statistics.median(loads)


def run_rounds(sc, name, inp, workdir, clock, tally, seconds, min_rounds, started,
               tracer=None):
    """Rounds until ``seconds`` of measured work and ``min_rounds`` are
    done; returns the untraced rounds and the traced ones.  With a tracer,
    every second round is traced, so that both kinds meet the same machine
    speed.  Only the rounds themselves are traced, not the checks."""
    plain, traced = [], []
    spent = 0.0
    runner = wl.Runner(sc, workdir, clock)
    while len(plain) + len(traced) < min_rounds or spent < seconds:
        if plain and time.perf_counter() - started > TIME_CAP_S:
            break
        tracing = tracer is not None and len(traced) < len(plain)
        runner.tracer = tracer if tracing else None
        if tracing:
            tracer.install(sc)
        try:
            ops = wl.run_round(runner, name, inp)
        finally:
            if tracing:
                tracer.uninstall()
        wl.check_round(sc, name, ops, inp)
        tally.record(ops, f"round {len(plain) + len(traced) + 1}")
        (traced if tracing else plain).append(ops)
        spent += sum(op.seconds for op in ops.values())
    return plain, traced


def round_time(rounds, attr="ref_seconds"):
    """The time of one round with each operation at its median over the
    rounds.  A slow spell of the host then costs only the operation it hit,
    not the whole round it fell in."""
    return sum(statistics.median(getattr(ops[key], attr) for ops in rounds)
               for key in rounds[0])


def speed(rounds):
    """Reference-speed seconds per measured second over the rounds."""
    return statistics.median(calibrate.REF_S / op.cal
                             for ops in rounds for op in ops.values())


def command_metrics(rounds):
    out = {}
    for metric, (op_name, kind) in COMMAND_METRICS.items():
        ops = [ops[op_name] for ops in rounds if op_name in ops]
        if not ops:
            out[metric] = 0.0
            continue
        sec = statistics.median(op.ref_seconds for op in ops)
        out[metric] = ops[0].units / sec if kind == "rate" else sec
    return out


def micro_se3(sc, clock):
    """Per-call microbenchmarks of the se3 kernels on fixed inputs."""
    se3 = sc.se3
    rng = np.random.default_rng(12345)
    x1, x2 = rng.normal(size=6), rng.normal(size=6)
    p1, p2 = se3.exp_se3(x1), se3.exp_se3(x2)
    cases = {"exp_se3": lambda: se3.exp_se3(x1), "pose_compose": lambda: p1.compose(p2),
             "pose_inverse": p1.inverse, "adjoint": lambda: se3.adjoint(p1),
             "lie_bracket": lambda: se3.lie_bracket(x1, x2)}
    out = {}
    for key, fn in cases.items():
        samples = []
        cal = clock.sample()
        for _ in range(MICRO_REPEATS):
            tic = time.perf_counter()
            for _ in range(MICRO_LOOPS):
                fn()
            per_call = (time.perf_counter() - tic) / MICRO_LOOPS
            after = clock.sample()
            samples.append(per_call * calibrate.REF_S / (0.5 * (cal + after)))
            cal = after
        out[f"se3.{key}_us"] = 1e6 * statistics.median(samples)
    return out


def op_counts(sc, tally, n=16):
    """Operation counts of idyn on the 16-joint chain; each must equal
    ``predict_op_counts``."""
    model = wl.chain_model(sc, n)
    rng = np.random.default_rng(1234)
    q, qd, qdd = (rng.normal(size=n) for _ in range(3))
    out, ops = {}, {}
    for rep in ("body", "spatial", "hybrid"):
        op = wl.Op(f"op_counts_{rep}")
        try:
            meas = sc.dynamics.idyn(model, q, qd, qdd, rep, gravity=False, full=True).report
            pred = sc.dynamics.predict_op_counts(rep, n)
            for c in OP_COUNTERS:
                out[f"dynamics.ops.{rep}.{c}"] = getattr(meas, c)
                if getattr(meas, c) != getattr(pred, c):
                    op.fail(f"{c} = {getattr(meas, c)}, predicted {getattr(pred, c)}")
        except Exception as exc:  # a failed operation, not a crash
            op.fail(f"raised {exc!r}")
        ops[rep] = op
    tally.record(ops, "op counts")
    return out


def run(sc, name, seed, seconds, trace, workdir):
    """Run one workload; returns (metrics, notes, tally, rounds run), where
    notes are the figures printed beside the metrics."""
    with calibrate.Clock() as clock:
        return _run(sc, name, seed, seconds, trace, workdir, clock)


def _run(sc, name, seed, seconds, trace, workdir, clock):
    started = time.perf_counter()
    tally = Tally()
    inp = wl.make_inputs(sc, name, seed, wl.SIZES, os.path.join(workdir, "seeded"))
    import_s, load_s = measure_setup(inp.model_path, SETUP_REPEATS, clock)

    # Probe round: warm-up, checked against the stored reference values.
    ops = probe_round(sc, name, os.path.join(workdir, "probe"), clock)
    reference = load_reference()
    if name in reference:
        wl.compare_reference(ops, reference[name])
    else:
        next(iter(ops.values())).fail("no stored reference for this workload")
    tally.record(ops, "probe")

    if not trace:
        rounds, _ = run_rounds(sc, name, inp, workdir, clock, tally, seconds, MIN_ROUNDS,
                               started)
        metrics = {
            "setup_s": import_s + load_s,
            "wall_s": round_time(rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {"raw_wall_s": round_time(rounds, "seconds"),
                 "speed": speed(rounds), **command_metrics(rounds)}
        return metrics, notes, tally, len(rounds)

    tracer = Tracer()
    # at least two rounds of each kind
    plain, traced = run_rounds(sc, name, inp, workdir, clock, tally, seconds, 4, started,
                               tracer)
    metrics = command_metrics(plain)
    metrics["setup.import_s"] = import_s
    metrics["model.load_model_ms"] = 1e3 * load_s
    metrics.update(micro_se3(sc, clock))
    lay, cli_self = layers.span_metrics(tracer.analyse(), len(traced), inp.rows,
                                        inp.steps, speed(traced))
    metrics.update(lay)
    metrics.update(op_counts(sc, tally))
    out_rows = sum(op.out_rows for ops in traced for op in ops.values())
    metrics["cli.self_ms_per_krow"] = 1e6 * cli_self / out_rows if out_rows else 0.0
    metrics["cli.out_bytes"] = sum(op.out_bytes for op in traced[0].values())
    metrics["trace.overhead_ratio"] = round_time(traced) / round_time(plain)
    return metrics, {"speed": speed(plain + traced)}, tally, len(plain) + len(traced)


def probe_round(sc, name, probe_dir, clock):
    """One checked round at the fixed probe inputs."""
    probe = wl.make_inputs(sc, name, wl.PROBE_SEED, wl.PROBE_SIZES, probe_dir)
    ops = wl.run_round(wl.Runner(sc, probe_dir, clock), name, probe)
    wl.check_round(sc, name, ops, probe)
    return ops


def load_reference():
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sc = _import_package()
    if sc is None:
        print(f"error: no screwchain package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        metrics, notes, tally, n_rounds = run(sc, args.workload, args.seed, args.seconds,
                                              args.trace, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 3

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} rounds {n_rounds}")
    print("machine " + json.dumps(machine(args.seed), sort_keys=True))
    for name, value in notes.items():
        print(f"note {name} {value:.6g} {per_layer.get(name) or NOTE_UNITS[name]}")
    for name in declared:
        print(f"metric {name} {metrics[name]:.6g} {declared[name]}")
    print(f"error_rate {tally.failed / max(tally.attempted, 1):.6g} ratio")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": declared[name]}
                    for name in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
