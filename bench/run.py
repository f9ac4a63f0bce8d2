"""mapgvar benchmark: whole CLI commands, end to end, with a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. One process, one closed-loop client: each operation starts when
the previous one (and its output check) has finished. Operations cycle
through the workload's round of inputs until ``--seconds`` have passed.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones; with ``--trace 1`` every operation runs twice, once
plain and once with span tracing, and the metrics are the per-layer ones.
A record of the run (machine, versions, per-op latencies and artifact
digests) goes to ``.bench_work/records/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"  # one client and one BLAS thread: steadier than sharing 2 cores
SETUP_REPS = 5
# The reference kernel's fastest time on the 2-vCPU Xeon VM the bounds were
# set on; timings are reported at that core speed (see reference_kernel).
REF_KERNEL_S = 0.0044

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _bytes_out(bound, result):
    return len(result)


def _bytes_in(bound, result):
    return len(bound["text"])


def _mc_steps(bound, result):
    return bound["n_trajectories"] * bound["horizon"]


def _train_steps(bound, result):
    from mapgvar.estimators import default_horizon

    game, config = bound["game"], bound["config"]
    horizon = config.horizon or default_horizon(game.gamma, game.beta)
    return config.batch_size * horizon * config.iterations


# (module, function, reported stats, work counted for the rate metric)
LAYERS = (
    ("games", "serialize_game", ("busy_s", "mb_per_s"), _bytes_out),
    ("games", "parse_game", ("busy_s", "mb_per_s"), _bytes_in),
    ("games", "random_game", ("busy_s",), None),
    ("policies", "softmax_probs", ("calls",), None),
    ("policies", "joint_action_prob_table", ("busy_s",), None),
    ("values", "solve_values", ("calls", "busy_s"), None),
    ("values", "state_distributions", ("busy_s",), None),
    ("values", "advantage_decomposition", ("busy_s",), None),
    ("estimators", "agent_prob_table", ("calls", "busy_s"), None),
    ("estimators", "signal_table", ("calls",), None),
    ("variance", "step_moments", ("calls", "busy_s"), None),
    ("variance", "bound_constants", ("calls",), None),
    ("variance", "centralized_gap_bound", ("busy_s",), None),
    ("variance", "coma_gap_bound", ("busy_s",), None),
    ("variance", "build_variance_report", ("self_s",), None),
    ("variance", "mc_variance", ("busy_s", "steps_per_s"), _mc_steps),
    ("variance", "advantage_variance_identity", ("busy_s",), None),
    ("variance", "advantage_variance_bound", ("busy_s",), None),
    ("variance", "local_variance", ("calls",), None),
    ("variance", "excess_variance_bounds", ("busy_s",), None),
    ("training", "train", ("self_s", "steps_per_s"), _train_steps),
    ("training", "td_learn_q", ("calls", "busy_s"), None),
    ("training", "train_gaussian", ("self_s",), None),
    ("baselines", "ob_surrogate_gaussian", ("calls", "busy_s"), None),
    ("cli", "main", ("self_s",), None),
)
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s",
              "mb_per_s": "MB/s", "steps_per_s": "steps/s"}
TRACE_UNITS = {"trace.overhead_frac": "fraction", "trace.attributed_frac": "fraction"}


def per_layer_units() -> dict:
    units = {
        f"{module}.{func}.{stat}": STAT_UNITS[stat]
        for module, func, stats, _ in LAYERS
        for stat in stats
    }
    units.update(TRACE_UNITS)
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


_ref_inputs = None


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of the kinds of work mapgvar does: an
    interpreter loop, small numpy products, a dense linear solve and JSON text.

    On a shared VM the core's speed alternates between fast phases and phases
    1.5-1.9x slower, lasting from a fraction of a second to a whole run; a run
    that meets no fast phase read 15-25% slower on every timing, for the same
    code. The kernel, timed just before and after each measured piece of
    work, gives the core's speed at that moment. Its mix was chosen so that
    it slows by the same factor as every workload's operations to within
    about 5%: the interpreter loop alone understates their slowdown, the
    solve alone overstates train's, and without the JSON text it understated
    corpus's by 10%. Each time is reported multiplied
    by ``REF_KERNEL_S`` over the kernel's mean time around it. The kernel is
    the benchmark's own code, so a change to ``mapgvar`` moves the scaled
    times exactly as it moves the raw ones.
    """
    import numpy as np

    global _ref_inputs
    if _ref_inputs is None:
        rng = np.random.default_rng(0)
        small = rng.random((30, 30)) / 30.0
        _ref_inputs = (small, rng.random((160, 160)) + 160.0 * np.eye(160),
                       np.ones((160, 4)), small.tolist())
    small, square, rhs, nested = _ref_inputs
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(8000):
        acc += (i * 7) % 13
        table[i & 63] = acc
    x = small
    for i in range(120):
        x = np.tanh(small @ x) + small[i % 30]
    for _ in range(6):
        np.linalg.solve(square, rhs)
    json.loads(json.dumps(nested, indent=2))
    return time.perf_counter() - start


def core_scale(ref_before: float, ref_after: float) -> float:
    return REF_KERNEL_S / (0.5 * (ref_before + ref_after))


def tail_percentile(latencies, pct: int):
    """Nearest-rank percentile; returns (value, samples strictly beyond its rank)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latency_metrics(results, tail_pct: int):
    """ops_per_s, op_p50_ms and op_tail_ms from each op's median scaled latency.

    Each input's latency is the median over its repeats of the time scaled
    to the reference core speed (``reference_kernel``). Quantiles are
    interpolated over the round's inputs, one median each: ranks over all
    executions would jump between neighbouring inputs as the count of
    finished rounds changes. Returns (metrics, info) where info holds the
    unscaled figures and the number of executions slower than the tail.
    """
    scaled, best = {}, {}
    for r in results:
        scaled.setdefault(r.op, []).append(r.scaled_s)
        best[r.op] = min(best.get(r.op, math.inf), r.latency_s)
    per_op = {op: statistics.median(times) for op, times in scaled.items()}
    per_input = list(per_op.values())
    raw = [r.latency_s for r in results]
    ok_share = sum(not r.failed for r in results) / len(results)
    tail = (statistics.quantiles(per_input, n=100, method="inclusive")[tail_pct - 1]
            if len(per_input) > 1 else per_input[0])
    metrics = {
        "ops_per_s": ok_share * len(per_input) / sum(per_input),
        "op_p50_ms": 1000.0 * statistics.median(per_input),
        "op_tail_ms": 1000.0 * tail,
    }
    info = {
        "tail_samples_beyond": sum(r.scaled_s > tail for r in results),
        "raw_ops_per_s": ok_share * len(raw) / sum(raw),
        "raw_op_p50_ms": 1000.0 * statistics.median(raw),
        "raw_op_tail_ms": 1000.0 * tail_percentile(raw, tail_pct)[0],
        "best_latency_s": best,
        "scaled_median_latency_s": per_op,
    }
    return metrics, info


@dataclass
class Measured:
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    op_log: list = field(default_factory=list)
    first_digest: dict = field(default_factory=dict)  # op name -> sha256 of its first run


def measure(ops, out_dir: str, seconds: float, tracer=None, into=None) -> Measured:
    """Closed loop over ``ops`` until ``seconds`` pass and, counting earlier
    calls with the same ``into``, at least one whole round has run.

    Each call continues the rotation where the last one stopped. With a
    tracer, each op runs plain and traced back to back, the order
    alternating. An op whose artifact digest differs from its first run fails.
    The reference kernel runs before the first op and after each op.
    """
    import workloads

    done = Measured() if into is None else into
    ref = reference_kernel()
    deadline = time.perf_counter() + seconds
    while len(done.plain) < len(ops) or time.perf_counter() < deadline:
        step = len(done.plain)
        op = ops[step % len(ops)]
        modes = (False,) if tracer is None else ((False, True), (True, False))[step % 2]
        for with_trace in modes:
            if tracer is not None:
                tracer.active = with_trace
            result = workloads.execute(op, out_dir)
            if tracer is not None:
                tracer.active = False
            after = reference_kernel()
            result.core_scale = core_scale(ref, after)
            ref = after
            if result.digest is not None:
                expected = done.first_digest.setdefault(op.name, result.digest)
                if result.digest != expected:
                    result.problems.append("artifact bytes differ from this op's first run")
            (done.traced if with_trace else done.plain).append(result)
            done.op_log.append({"op": op.name, "traced": with_trace,
                                "latency_s": result.latency_s,
                                "core_scale": result.core_scale, "problems": result.problems})
            for problem in result.problems:
                print(f"bench: FAILED {op.name}: {problem}", file=sys.stderr)
    return done


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_metadata() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    lines = 0
    for dirpath, _, filenames in sorted(os.walk(SRC)):
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
                lines += data.count(b"\n")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mapgvar", "__init__.py")):
        print(f"bench: no mapgvar package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    mapgvar = importlib.import_module("mapgvar")
    importlib.import_module("mapgvar.cli")
    import_s = time.perf_counter() - start
    reference_kernel()  # the first call pays numpy's lazy set-up of the kernel's routines
    import_scale = core_scale(reference_kernel(), reference_kernel())
    if not os.path.abspath(mapgvar.__file__).startswith(SRC + os.sep):
        print(f"bench: imported mapgvar from {mapgvar.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import layer_trace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, args.workload)
    out = os.path.join(work, "out")

    tracer = None
    if args.trace:
        tracer = layer_trace.Tracer(tuple((m, f, w) for m, f, _, w in LAYERS))
        tracer.install()

    # Set up again before each fifth of the run, so the median set-up time
    # samples the machine at five moments, not one.
    setup_reps, setup_scales = [], []
    measured = Measured()
    for _ in range(SETUP_REPS):
        ref = reference_kernel()
        t0 = time.perf_counter()
        wl = workloads.build(args.workload, args.seed, os.path.join(work, "inputs"))
        for op in wl.warmup:
            result = workloads.execute(op, out)
            if result.failed:
                print(f"bench: warm-up {op.name} failed: {result.problems}", file=sys.stderr)
        setup_reps.append(time.perf_counter() - t0)
        setup_scales.append(core_scale(ref, reference_kernel()))
        measure(wl.ops, out, args.seconds / SETUP_REPS, tracer, measured)
    setup_s = import_s * import_scale + statistics.median(
        rep * scale for rep, scale in zip(setup_reps, setup_scales))
    plain, traced = measured.plain, measured.traced
    done = plain + traced
    failed = sum(r.failed for r in done)
    latency, latency_info = latency_metrics(plain, wl.tail_pct)
    end_to_end = {
        **latency,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, 1 process",
        "machine": run_metadata(),
        "attempted": len(done),
        "failed": failed,
        "error_rate": failed / len(done),
        "round_size": len(wl.ops),
        "tail_percentile": wl.tail_pct,
        **latency_info,
        "import_s": import_s,
        "import_core_scale": import_scale,
        "setup_reps_s": setup_reps,
        "setup_core_scales": setup_scales,
        "end_to_end": end_to_end,
        "artifact_sha256": measured.first_digest,
        "ops": measured.op_log,
    }
    if tracer is None:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in end_to_end.items()}
    else:
        tracer.uninstall()
        metrics = layer_metrics(tracer, plain, traced)
        record["per_layer"] = {k: v["value"] for k, v in metrics.items()}
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    stem = os.path.join(WORK, "records", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.save(stem + "-spans.jsonl")

    print(f"workload {args.workload}, seed {args.seed}: {len(done)} ops attempted, "
          f"{failed} failed, error_rate {failed / len(done)!r}")
    print(f"op_tail_ms is p{wl.tail_pct} of {len(plain)} ops, "
          f"{latency_info['tail_samples_beyond']} samples beyond it; setup_s = import {import_s:.3f} s "
          f"+ median of set-ups {[round(s, 3) for s in setup_reps]}, each scaled to the "
          f"reference core speed by {[round(s, 3) for s in [import_scale, *setup_scales]]}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(f"record: {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({"correct": failed == 0, "attempted": len(done),
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(tracer, plain, traced) -> dict:
    metrics = {}
    for module, func, stats, _ in LAYERS:
        layer = tracer.layer(f"{module}.{func}")
        rate = layer.work / layer.busy_s if layer.busy_s > 0 else 0.0
        values = {"calls": layer.calls, "busy_s": layer.busy_s, "self_s": layer.self_s,
                  "mb_per_s": rate / 1e6, "steps_per_s": rate}
        for stat in stats:
            metrics[f"{module}.{func}.{stat}"] = {"value": values[stat],
                                                  "unit": STAT_UNITS[stat]}
    # both lists hold the same ops, so their total times compare like for like;
    # scaled, so that a change of core speed between the two does not count
    plain_s = sum(r.scaled_s for r in plain)
    traced_s = sum(r.scaled_s for r in traced)
    values = {"trace.overhead_frac": 1.0 - plain_s / traced_s,
              "trace.attributed_frac":
                  tracer.root_child_s / sum(r.latency_s for r in traced)}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": TRACE_UNITS[name]}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
