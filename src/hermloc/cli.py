"""Command-line front end.

Subcommands:

  gen-data        draw helix training samples and write a dataset CSV
  estimate        run the kernel estimator on a dataset CSV
  helix           run the full helix reconstruction experiment
  baseline-heat   heat-kernel smoother vs kernel estimator comparison table
  demo-bernstein  Bernstein operator saturation table
  synth-net       build the Gaussian network for a localized kernel
  deep-eval       evaluate a DAG composition from JSON descriptions

Shared flags, each only where its subcommand reads it:

  --out <dir>      every subcommand
  --config <json>  gen-data, estimate, helix, baseline-heat, synth-net:
                   defaults for the subcommand's parameters (explicit flags
                   win; for `helix` the schema mirrors ExperimentConfig
                   field for field)
  --seed <u64>     gen-data, helix, baseline-heat
  --trials <k>     helix

Exit code 0 on success, 2 on a validation error (bad or unknown flag,
malformed config or input file), 1 on a runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .deep_net import dag_from_doc, eval_gfunction
from .estimator import (
    EstimatorConfig,
    estimate_batch,
    guarded_ratio,
    ratio_reconstruction,
    read_dataset_csv,
    value_and_unit_passes,
    write_dataset_csv,
)
from .experiments import (
    NOISE_MODELS,
    ExperimentConfig,
    HelixSpec,
    bernstein_demo,
    gen_training,
    heat_value_and_unit_passes,
    run_experiment,
)
from .gaussian_net import MAX_M, prefab_kernel_network, write_network_json
from .kernels import eval_kernel, kernel_form

# unit roundoff of float64
_U = 2.0**-53

# named constituents deep-eval can attach to DAG nodes
CONSTITUENTS = {
    "sum": lambda v: float(np.sum(v)),
    "mean": lambda v: float(np.mean(v)),
    "prod": lambda v: float(np.prod(v)),
    "norm": lambda v: float(np.linalg.norm(v)),
    "sin_sum": lambda v: math.sin(float(np.sum(v))),
    "cos_sum": lambda v: math.cos(float(np.sum(v))),
    "helix_f": lambda v: math.cos(float(v[0] - v[1] - v[2] / 2.0)),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return doc


# JSON types a config value may have, per parameter type; a bool is neither
_CONFIG_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _pick(flag, config: dict, key: str, default, kind: type):
    """Explicit flag > config value > built-in default, as ``kind``.

    A config value of another JSON type (null, list, object, bool, or a
    string for a number) raises ``ValueError``.
    """
    if flag is not None:
        return flag
    if key not in config:
        return default
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[kind]):
        raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


def _out_dir(args, default: str) -> str:
    out = args.out if args.out is not None else default
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_gen_data(args) -> int:
    config = _load_config(args.config)
    m = _pick(args.m, config, "M", 256, int)
    noise = _pick(args.noise, config, "noise", "none", str)
    sigma = _pick(args.sigma, config, "sigma", 0.3, float)
    seed = _pick(args.seed, config, "seed", 0, int)
    ds = gen_training(HelixSpec(), m, noise, sigma=sigma, seed=seed)
    out = _out_dir(args, "data_out")
    path = os.path.join(out, "data.csv")
    write_dataset_csv(ds, path)
    print(f"wrote {path} ({ds.size} samples, noise={noise}, seed={seed})")
    return 0


def _cmd_estimate(args) -> int:
    config = _load_config(args.config)
    n = _pick(args.n, config, "n", 64, int)
    alpha = _pick(args.alpha, config, "alpha", 1.0, float)
    q = _pick(args.q, config, "q", 1, int)
    ds = read_dataset_csv(args.data, q)
    ecfg = EstimatorConfig.build(n, alpha, ds.q)

    t = None
    if args.points is not None:
        if _csv_has_value(args.points):
            xs = read_dataset_csv(args.points, ds.q).points
        else:
            xs = _read_points_csv(args.points, ds.ambient_dim)
    else:
        t, xs = HelixSpec().grid(args.helix_grid)
        if ds.ambient_dim != 3:
            raise ValueError("--helix-grid needs a 3-coordinate dataset")

    form = kernel_form(ecfg.table)
    print(
        f"kernel: table length {ecfg.table.a.size}, cutoff {form.rcut:g}, "
        f"{form.panels} panels of degree {form.degree}, certificate {form.certificate:.3e}"
    )
    if args.ratio:
        num, den = value_and_unit_passes(ds, ecfg, xs)
        cols = {"raw": num, "ratio": guarded_ratio(num, den)}
    else:
        cols = {"raw": estimate_batch(ds, ecfg, xs)}

    out = _out_dir(args, "estimate_out")
    path = os.path.join(out, "estimates.csv")
    header = ([] if t is None else ["t"]) + [
        f"y_{i+1}" for i in range(xs.shape[1])
    ] + list(cols)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(xs.shape[0]):
            row = [] if t is None else [repr(float(t[i]))]
            row += [repr(float(v)) for v in xs[i]]
            row += [repr(float(cols[k][i])) for k in cols]
            writer.writerow(row)
    print(f"wrote {path} ({xs.shape[0]} points, n={n}, alpha={alpha})")
    return 0


def _csv_has_value(path: str) -> bool:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header and header[-1] == "value"


def _read_points_csv(path: str, expected_dim: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != [f"y_{i+1}" for i in range(len(header or []))]:
            raise ValueError(f"{path}: header must be y_1,...,y_Q")
        rows = [[float(v) for v in row] for row in reader if row]
    xs = np.array(rows, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != expected_dim:
        raise ValueError(f"{path}: points must have {expected_dim} coordinates")
    return xs


def _cmd_helix(args) -> int:
    config = _load_config(args.config)
    doc = dict(config)
    for key, flag in (
        ("M", args.m),
        ("n", args.n),
        ("alpha", args.alpha),
        ("noise", args.noise),
        ("sigma", args.sigma),
        ("trials", args.trials),
        ("test_points", args.test_points),
        ("seed", args.seed),
    ):
        if flag is not None:
            doc[key] = flag
    doc["output"] = args.out if args.out is not None else doc.get("output", "helix_out")
    cfg = ExperimentConfig.from_dict(doc)
    report = run_experiment(cfg)
    avg = report.average_summary
    print(
        f"helix: M={cfg.M} n={cfg.n} alpha={cfg.alpha} noise={cfg.noise} "
        f"trials={cfg.trials} seed={cfg.seed}"
    )
    for tr in report.trials:
        s = tr.summary
        print(
            f"  trial {tr.trial:3d}: interior max {s['interior_max']:.6f} "
            f"max {s['max']:.6f} median {s['median']:.6f}"
        )
    print(
        f"  average : interior max {avg['interior_max']:.6f} "
        f"max {avg['max']:.6f} median {avg['median']:.6f}"
    )
    print(f"wrote report to {cfg.output}")
    return 0


def _cmd_baseline_heat(args) -> int:
    config = _load_config(args.config)
    m = _pick(args.m, config, "M", 1024, int)
    seed = _pick(args.seed, config, "seed", 0, int)
    test_points = _pick(args.test_points, config, "test_points", 512, int)
    times = [float(s) for s in args.times.split(",")]
    n_list = [int(s) for s in args.n_list.split(",")]
    if any(t <= 0 for t in times):
        raise ValueError("diffusion times must be positive")

    spec = HelixSpec()
    ds = gen_training(spec, m, "none", seed=seed)
    t_grid, xs = spec.grid(test_points)
    f_true = spec.target(t_grid)
    interior = spec.interior(t_grid)

    rows = []
    for t in times:
        est = guarded_ratio(*heat_value_and_unit_passes(ds, t, xs))
        err = float(np.max(np.abs((est - f_true)[interior])))
        rows.append(("heat", t, err))
    for n in n_list:
        ecfg = EstimatorConfig.build(n, 1.0, 1)
        est = ratio_reconstruction(ds, ecfg, xs)
        err = float(np.max(np.abs((est - f_true)[interior])))
        rows.append(("kernel", n, err))

    out = _out_dir(args, "baseline_out")
    path = os.path.join(out, "baseline_heat.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "parameter", "interior_max_error"])
        for kind, param, err in rows:
            writer.writerow([kind, repr(float(param)), repr(err)])
    print(f"{'method':8s} {'parameter':>10s} {'interior max error':>20s}")
    for kind, param, err in rows:
        print(f"{kind:8s} {param:10.4g} {err:20.6e}")
    print(f"wrote {path}")
    return 0


def _cmd_demo_bernstein(args) -> int:
    n_list = [int(s) for s in args.n_list.split(",")]
    xs = np.linspace(0.0, 1.0, args.grid)
    target = xs * (1.0 - xs)
    rows = []
    for n in n_list:
        vals = bernstein_demo(lambda u: u * u, n, xs)
        scaled = n * (vals - xs * xs)
        rows.append((n, float(np.max(np.abs(scaled))), float(np.max(np.abs(scaled - target)))))
    out = _out_dir(args, "bernstein_out")
    path = os.path.join(out, "bernstein.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "sup_scaled_error", "sup_dev_from_x_1mx"])
        for n, sup_scaled, dev in rows:
            writer.writerow([n, repr(sup_scaled), repr(dev)])
    print(f"{'n':>6s} {'sup n|B_n(x^2)-x^2|':>22s} {'dev from x(1-x)':>18s}")
    for n, sup_scaled, dev in rows:
        print(f"{n:6d} {sup_scaled:22.12f} {dev:18.3e}")
    print(f"wrote {path}")
    return 0


def _cmd_synth_net(args) -> int:
    config = _load_config(args.config)
    n = _pick(args.n, config, "n", 4, int)
    q = _pick(args.q, config, "q", 1, int)
    big_q = _pick(args.ambient_dim, config, "ambient_dim", 2, int)
    alpha = _pick(args.alpha, config, "alpha", 1.0, float)
    net = prefab_kernel_network(n, q, big_q, alpha)
    out = _out_dir(args, "synth_out")
    path = os.path.join(out, "network.json")
    write_network_json(net, path)
    print(f"wrote {path} ({net.coeffs.size} Gaussian terms, scale={net.scale})")
    if args.check:
        table_cfg = EstimatorConfig.build(n, alpha, q)
        radii = np.linspace(0.0, 3.0, 121)
        pts = np.zeros((radii.size, big_q))
        pts[:, 0] = radii
        lam = float(n) ** (1.0 - alpha)
        want = float(n) ** (q * (1.0 - alpha)) * eval_kernel(table_cfg.table, lam * radii)
        got = net(pts)
        dev = float(np.max(np.abs(got - want)))
        mass = float(np.sum(np.abs(net.coeffs)))
        print(f"max |network - localized kernel| on [0,3]: {dev:.3e} "
              f"(sum |c_j| = {mass:.3e}, rounding scale u*sum |c_j| = {_U * mass:.3e})")
    return 0


def _cmd_deep_eval(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    dag = dag_from_doc(doc, args.graph)
    names = {}
    for row in doc["nodes"]:
        name = row.get("constituent")
        if name is None:
            raise ValueError(f"node {row.get('id')!r}: missing constituent name")
        if name not in CONSTITUENTS:
            raise ValueError(
                f"unknown constituent {name!r}; choose from {sorted(CONSTITUENTS)}"
            )
        names[str(row["id"])] = CONSTITUENTS[name]

    with open(args.inputs, "r", encoding="utf-8") as fh:
        inputs_doc = json.load(fh)
    assignments = inputs_doc if isinstance(inputs_doc, list) else [inputs_doc]
    values = []
    for assignment in assignments:
        if not isinstance(assignment, dict):
            raise ValueError("each input assignment must map source id -> coordinates")
        try:
            coords = {sid: np.asarray(v, dtype=float) for sid, v in assignment.items()}
        except (TypeError, ValueError) as exc:
            raise ValueError(f"source coordinates must be numbers: {exc}") from exc
        values.append(eval_gfunction(dag, coords, constituents=names))

    for v in values:
        print(repr(v))
    if args.out is not None:
        out = _out_dir(args, "deep_out")
        path = os.path.join(out, "deep_eval.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"values": values}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one shared flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermloc",
        description="Training-free localized-kernel function approximation toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    out = _flag("--out", help="output directory")
    config = _flag("--config", help="JSON file of parameter defaults")
    seed = _flag("--seed", type=int, help="RNG seed (unsigned integer)")
    trials = _flag("--trials", type=int, help="number of trials")

    p = subs.add_parser("gen-data", parents=[out, config, seed],
                        help="draw helix training samples to CSV")
    p.add_argument("--m", type=int, help="number of samples (default 256)")
    p.add_argument("--noise", choices=NOISE_MODELS, help="noise model")
    p.add_argument("--sigma", type=float, help="additive noise std (default 0.3)")
    p.set_defaults(func=_cmd_gen_data)

    p = subs.add_parser("estimate", parents=[out, config],
                        help="run the kernel estimator on a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV (gen-data format)")
    p.add_argument("--n", type=int, help="kernel degree (default 64)")
    p.add_argument("--alpha", type=float, help="localization exponent (default 1)")
    p.add_argument("--q", type=int, help="declared manifold dimension (default 1)")
    p.add_argument("--points", help="CSV of evaluation points (header y_1..y_Q)")
    p.add_argument(
        "--helix-grid", type=int, default=512,
        help="evaluate on this many equidistant helix points (default 512)",
    )
    p.add_argument("--ratio", action="store_true",
                   help="append the two-pass ratio reconstruction column")
    p.set_defaults(func=_cmd_estimate)

    p = subs.add_parser("helix", parents=[out, config, seed, trials],
                        help="run the helix reconstruction experiment")
    p.add_argument("--m", type=int, help="training size M")
    p.add_argument("--n", type=int, help="kernel degree")
    p.add_argument("--alpha", type=float, help="localization exponent")
    p.add_argument("--noise", choices=NOISE_MODELS, help="noise model")
    p.add_argument("--sigma", type=float, help="additive noise std")
    p.add_argument("--test-points", type=int, help="test grid size")
    p.set_defaults(func=_cmd_helix)

    p = subs.add_parser("baseline-heat", parents=[out, config, seed],
                        help="heat smoother vs kernel estimator table")
    p.add_argument("--m", type=int, help="training size (default 1024)")
    p.add_argument("--times", default="0.1,0.05,0.025",
                   help="comma-separated diffusion times")
    p.add_argument("--n-list", default="16,32,64",
                   help="comma-separated kernel degrees")
    p.add_argument("--test-points", type=int, help="test grid size (default 512)")
    p.set_defaults(func=_cmd_baseline_heat)

    p = subs.add_parser("demo-bernstein", parents=[out],
                        help="Bernstein saturation table")
    p.add_argument("--n-list", default="16,64,256", help="comma-separated degrees")
    p.add_argument("--grid", type=int, default=257, help="grid size on [0,1]")
    p.set_defaults(func=_cmd_demo_bernstein)

    p = subs.add_parser("synth-net", parents=[out, config],
                        help="build a Gaussian network for a kernel")
    p.add_argument("--n", type=int, help=f"kernel degree (2..{MAX_M}, default 4)")
    p.add_argument("--q", type=int, help="manifold dimension (default 1)")
    p.add_argument("--ambient-dim", type=int, help="ambient dimension Q (default 2)")
    p.add_argument("--alpha", type=float, help="localization exponent (default 1)")
    p.add_argument("--check", action="store_true",
                   help="compare the network against the kernel on [0,3]")
    p.set_defaults(func=_cmd_synth_net)

    p = subs.add_parser("deep-eval", parents=[out], help="evaluate a DAG composition")
    p.add_argument("--graph", required=True, help="DAG JSON (nodes name constituents)")
    p.add_argument("--inputs", required=True,
                   help="JSON: {source id: coords} or a list of such objects")
    p.set_defaults(func=_cmd_deep_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
