"""hermloc benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload helix_n64 --seed 0 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` the last line of standard output is a JSON
object whose metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are the per-layer metrics, taken from a separate traced
replay of the same inputs and from probes.  Reports, spans and the full
result (with machine facts) are written under ``bench/_out/``.  The exit
code is 0 when every operation succeeded and every output check passed,
1 when one did not, and 2 when the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")

# (name, unit); the order is the order of BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("kernels.compile_kernel_s", "s"),
    ("hermite.gauss_hermite_rule_s", "s"),
    ("gaussian_net.prefab_kernel_network_s", "s"),
    ("deep_net.build_deep_approx_s", "s"),
    ("kernels.eval_kernel_s", "s"),
    ("kernels.ns_per_radius_term", "ns"),
    ("kernels.radius_terms", "count"),
    ("kernels.table_len", "count"),
    ("estimator.estimate_batch_s", "s"),
    ("estimator.self_s", "s"),
    ("estimator.pairs", "count"),
    ("estimator.diff_mb", "MB"),
    ("estimator.continuous_operator_cold_s", "s"),
    ("estimator.continuous_operator_s", "s"),
    ("estimator.single_point_ms", "ms"),
    ("experiments.gen_training_s", "s"),
    ("experiments.ratio_reconstruction_s", "s"),
    ("experiments.write_report_s", "s"),
    ("experiments.report_bytes", "bytes"),
    ("experiments.low_mass_frac", "ratio"),
    ("gaussian_net.network_eval_s", "s"),
    ("gaussian_net.center_point_pairs", "count"),
    ("gaussian_net.useful_center_frac", "ratio"),
    ("gaussian_net.centers", "count"),
    ("deep_net.eval_gfunction_s", "s"),
    ("deep_net.node_evals", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
    ("median_err", "abs"),
    ("interior_max_err", "abs"),
    ("limit_gap", "abs"),
    ("dag_eval_p50_ms", "ms"),
    ("dag_eval_p90_ms", "ms"),
    ("dag_max_err", "abs"),
    ("net_kernel_dev", "abs"),
    ("failed_frac", "ratio"),
]
# below this share of the traced wall time, the per-layer split is not trusted
MIN_COVERAGE = 0.9
# set-up is timed in SETUP_BATCHES consecutive batches before the main phase;
# a batch repeats the set-up until SETUP_BATCH_SECONDS have passed (at least
# once) and yields its mean time, so a ~100 us build is averaged over
# thousands of calls and a ~0.3 s one is timed call by call
SETUP_BATCHES = 5
SETUP_BATCH_SECONDS = 0.2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def _time_setup(run) -> tuple[float, int]:
    """Median over SETUP_BATCHES of the mean set-up time, and the set-up count."""
    means, count = [], 0
    for _ in range(SETUP_BATCHES):
        calls = 0
        t0 = time.perf_counter()
        while True:
            run.setup()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SETUP_BATCH_SECONDS:
                break
        means.append(elapsed / calls)
        count += calls
    return statistics.median(means), count


def run_workload(size, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """Set up, measure the main phase, check outputs and, when tracing, replay and probe.

    Returns the ledger and two metric dicts keyed as END_TO_END and PER_LAYER.
    """
    from spans import Tracer
    from workloads import Ledger

    os.makedirs(out_dir, exist_ok=True)
    ledger = Ledger()
    run = size.start(seed, out_dir)

    setup_s, setups = _time_setup(run)

    layer: dict = {}
    if trace:
        tracer = Tracer()
        # before the untraced phase, so the replay sees the process cold
        since, traced_wall, replay_layer = run.replay(tracer, os.path.join(out_dir, "replay"))
        layer.update(replay_layer)

    times = []
    stop = time.perf_counter() + seconds
    i = 0
    while i < size.min_iterations or time.perf_counter() < stop:
        t0 = time.perf_counter()
        result = run.iteration(i)
        times.append(time.perf_counter() - t0)
        run.absorb(i, result, ledger)
        i += 1
    rss = peak_rss_mb()
    outcomes = run.finish(ledger)

    run_s = statistics.median(times)
    end_to_end = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": rss}
    if trace:
        stage_total = tracer.root_stage_total(since)
        layer.update(run.probe(tracer))
        layer.update(outcomes)
        layer["trace.coverage"] = stage_total / traced_wall
        layer["trace.overhead_s"] = stage_total - run_s
        layer["failed_frac"] = ledger.failed / ledger.attempted
        tracer.write(os.path.join(out_dir, f"spans_seed{seed}.json"))
        unknown = set(layer) - dict(PER_LAYER).keys()
        if unknown:
            raise KeyError(f"per-layer metrics missing from PER_LAYER: {sorted(unknown)}")
        # a layer this workload does not exercise did no work: 0
        layer = {name: float(layer.get(name, 0.0)) for name, _ in PER_LAYER}
    return {"ledger": ledger, "end_to_end": end_to_end, "per_layer": layer,
            "run_times": times, "setups": setups}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be non-negative", file=sys.stderr)
        return 2

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hermloc", "__init__.py")):
        print(f"error: no hermloc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT, args.workload)
    res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), out_dir)
    ledger = res["ledger"]
    facts = machine_facts()
    wanted = PER_LAYER if args.trace else END_TO_END
    source = res["per_layer"] if args.trace else res["end_to_end"]
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in wanted}
    correct = ledger.failed == 0
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": facts, "run_times": res["run_times"],
            "setups": res["setups"], "failures": ledger.failures,
            "end_to_end": res["end_to_end"], "per_layer": res["per_layer"]}
    with open(os.path.join(out_dir, f"result_seed{args.seed}_trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
        fh.write("\n")

    print("machine: " + json.dumps(facts))
    print(f"{args.workload}: {len(res['run_times'])} main-phase units, {res['setups']} set-ups")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if args.trace and res["per_layer"]["trace.coverage"] < MIN_COVERAGE:
        print(f"WARNING: stage spans cover {res['per_layer']['trace.coverage']:.1%} of the "
              f"traced wall time (< {MIN_COVERAGE:.0%}); the per-layer split is not trusted")
    for what in ledger.failures[:20]:
        print(f"FAILED: {what}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
