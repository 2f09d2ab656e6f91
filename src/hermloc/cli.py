"""Command-line front end.

Subcommands:

  gen-data        draw helix training samples and write a dataset CSV
  estimate        run the kernel estimator on a dataset CSV
  helix           run the full helix reconstruction experiment
  rates           kernel and heat smoother errors and doubling slopes in n
  synth-net       build the Gaussian network for a localized kernel
  deep-eval       evaluate a DAG composition from JSON descriptions

``hermloc <cmd> --help`` lists a subcommand's flags and every default.
Every subcommand takes --out <dir>.  Those with a row in ``_PARAMETERS``
also take --config <json>, a JSON object keyed by the row's parameter
names; each parameter takes its flag (helix's ``output`` is --out), else
its config value, else its default.  A key the subcommand does not read,
or a value of the wrong JSON type, is a validation error.

Exit code 0 on success, 2 on a validation error (bad or unknown flag,
malformed config or input file), 1 on a runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .deep_net import dag_from_doc, eval_gfunction
from .estimator import (
    EstimatorConfig,
    _read_csv,
    _read_json,
    _write_csv,
    _write_json,
    estimate_batch,
    guarded_ratio,
    read_dataset_csv,
    value_and_unit_passes,
    write_dataset_csv,
)
from .experiments import (
    NOISE_MODELS,
    ExperimentConfig,
    HelixSpec,
    _check_seed,
    _check_type,
    gen_training,
    rate_table,
    run_experiment,
)
from .gaussian_net import prefab_kernel_network, write_network_json
from .kernels import compile_kernel, eval_kernel, kernel_form

# unit roundoff of float64
_U = 2.0**-53

# named constituents deep-eval can attach to DAG nodes
CONSTITUENTS = {
    "sum": lambda v: float(np.sum(v)),
    "mean": lambda v: float(np.mean(v)),
    "prod": lambda v: float(np.prod(v)),
    "norm": lambda v: math.hypot(*v),
    "sin_sum": lambda v: math.sin(float(np.sum(v))),
    "cos_sum": lambda v: math.cos(float(np.sum(v))),
    "helix_f": lambda v: float(HelixSpec().target_ambient(v)),
}
# the coordinates a constituent reads, where it reads a fixed number
_WIDTHS = {"helix_f": 3}

# the --config parameters of each subcommand and their defaults: build_parser
# gives each a flag typed as its default, with a help line from _HELP, and
# _settings resolves it; helix's keys mirror ExperimentConfig field for field
_PARAMETERS = {
    "gen-data": {"M": 256, "noise": "none", "sigma": 0.3, "seed": 0},
    "estimate": {"n": 64, "alpha": 1.0, "q": 1},
    "helix": {**asdict(ExperimentConfig()), "output": "helix_out"},
    "rates": {"M": 1024, "seed": 0, "test_points": 512},
    "synth-net": {"n": 4, "q": 1, "ambient_dim": 2, "alpha": 1.0},
}
_HELP = {
    "M": "number of training samples",
    "n": "kernel degree",
    "alpha": "localization exponent",
    "q": "manifold dimension",
    "noise": "noise model",
    "sigma": "additive noise std",
    "trials": "number of trials",
    "test_points": "test grid size",
    "seed": "RNG seed, an unsigned integer",
    "output": "output directory",
    "ambient_dim": "ambient dimension Q",
}


def _settings(args) -> dict:
    """Each parameter of ``args.command``'s row: its flag, else its config value, else its default.

    A parameter's flag sets ``args.<key lowercased>``, and its type is its
    default's.  A config that is not a JSON object, a key outside the row,
    and a value of another JSON type (null, list, object, bool, or a string
    for a number) raise ``ValueError``.
    """
    defaults = _PARAMETERS[args.command]
    config = {}
    if args.config is not None:
        config = _read_json(args.config)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(config) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config fields: {unknown}")
    settings = {}
    for key, default in defaults.items():
        flag, kind = getattr(args, key.lower()), type(default)
        if flag is not None:
            settings[key] = flag
        elif key in config:
            _check_type(key, config[key], kind)
            settings[key] = kind(config[key])
        else:
            settings[key] = default
    return settings


def _out_dir(args, default: str) -> str:
    out = args.out if args.out is not None else default
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_gen_data(args) -> int:
    params = _settings(args)
    noise, seed = params["noise"], params["seed"]
    _check_seed(seed)
    ds = gen_training(HelixSpec(), params["M"], noise, sigma=params["sigma"],
                      rng=np.random.default_rng(seed))
    out = _out_dir(args, "data_out")
    path = os.path.join(out, "data.csv")
    write_dataset_csv(ds, path)
    print(f"wrote {path} ({ds.size} samples, noise={noise}, seed={seed})")
    return 0


def _cmd_estimate(args) -> int:
    params = _settings(args)
    n, alpha = params["n"], params["alpha"]
    ds = read_dataset_csv(args.data, params["q"])
    ecfg = EstimatorConfig.build(n, alpha, ds.q)

    if args.points is not None:
        xs, _ = _read_csv(args.points)
        if xs.shape[1] != ds.ambient_dim:
            raise ValueError(f"{args.points}: points must have {ds.ambient_dim} coordinates")
        cols = {}
    else:
        if args.helix_grid < 1:
            raise ValueError("--helix-grid must be at least 1")
        t, xs = HelixSpec().grid(args.helix_grid)
        if ds.ambient_dim != 3:
            raise ValueError("--helix-grid needs a 3-coordinate dataset")
        cols = {"t": t}
    cols.update((f"y_{i + 1}", x) for i, x in enumerate(xs.T))

    form = kernel_form(ecfg.table)
    print(
        f"kernel: table length {ecfg.table.a.size}, cutoff {form.rcut:g}, "
        f"{form.panels} panels of width 1/{1.0 / form.width:g} and degree {form.degree}, "
        f"certificate {form.certificate:.3e}"
    )
    if args.ratio:
        num, den = value_and_unit_passes(ds, ecfg, xs)
        cols.update(raw=num, ratio=guarded_ratio(num, den))
    else:
        cols["raw"] = estimate_batch(ds, ecfg, xs)

    out = _out_dir(args, "estimate_out")
    path = os.path.join(out, "estimates.csv")
    _write_csv(path, list(cols), list(cols.values()))
    print(f"wrote {path} ({xs.shape[0]} points, n={n}, alpha={alpha})")
    return 0


def _cmd_helix(args) -> int:
    cfg = ExperimentConfig(**_settings(args))
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


def _cmd_rates(args) -> int:
    params = _settings(args)
    n_list = [int(s) for s in args.n_list.split(",")]  # a ValueError exits 2
    rows = rate_table(n_list, params["M"], params["seed"], params["test_points"])
    path = os.path.join(_out_dir(args, "rates_out"), "rates.csv")
    methods, regimes, ns, errors, slopes = zip(*rows)
    slopes = ["" if s is None else str(s) for s in slopes]
    _write_csv(path, ["method", "regime", "n", "error", "slope"],
               [methods, regimes, ns, errors, slopes])
    print("method   regime       n        error   slope")
    for method, regime, n, err, slope in rows:
        slope = "" if slope is None else f"{slope:7.2f}"
        print(f"{method:8s} {regime:8s} {n:5d} {err:12.4e} {slope}")
    print(f"wrote {path}")
    return 0


def _cmd_synth_net(args) -> int:
    params = _settings(args)
    n, q, big_q, alpha = params["n"], params["q"], params["ambient_dim"], params["alpha"]
    net = prefab_kernel_network(n, q, big_q, alpha)
    out = _out_dir(args, "synth_out")
    path = os.path.join(out, "network.json")
    write_network_json(net, path)
    print(f"wrote {path} ({net.axis_centers.size ** net.dim} Gaussian terms, scale={net.scale})")
    if args.check:
        radii = np.linspace(0.0, 3.0, 121)
        pts = np.zeros((radii.size, big_q))
        pts[:, 0] = radii
        lam = float(n) ** (1.0 - alpha)
        want = float(n) ** (q * (1.0 - alpha)) * eval_kernel(compile_kernel(n, q), lam * radii)
        got = net(pts)
        dev = float(np.max(np.abs(got - want)))
        # S sets the rounding scale of the factored evaluation (see gaussian_net)
        mass, w = np.abs(net.core), np.sum(np.abs(net.factor), axis=0)
        for _ in range(net.dim):
            mass = mass @ w
        print(f"max |network - localized kernel| on [0,3]: {dev:.3e} "
              f"(S = sum_k |core_k| prod_a w(k_a) = {mass:.3e}, "
              f"rounding scale u*S = {_U * mass:.3e})")
    return 0


def _cmd_deep_eval(args) -> int:
    doc = _read_json(args.graph)
    dag = dag_from_doc(doc, args.graph)
    names = {}
    for row in doc["nodes"]:
        name = row.get("constituent")
        if name is None:
            raise ValueError(f"node {row.get('id')!r}: missing constituent name")
        if not isinstance(name, str):
            raise ValueError(
                f"node {row.get('id')!r}: constituent must be a string, got {name!r}"
            )
        if name not in CONSTITUENTS:
            raise ValueError(
                f"unknown constituent {name!r}; choose from {sorted(CONSTITUENTS)}"
            )
        nid = str(row["id"])
        in_dim = dag.nodes[nid].in_dim
        if _WIDTHS.get(name, in_dim) != in_dim:
            raise ValueError(f"node {nid!r}: {name} reads {_WIDTHS[name]} coordinates, "
                             f"but in_dim is {in_dim}")
        names[nid] = CONSTITUENTS[name]
    dag = dag.with_constituents(names)

    inputs_doc = _read_json(args.inputs)
    assignments = inputs_doc if isinstance(inputs_doc, list) else [inputs_doc]
    values = []
    for assignment in assignments:
        if not isinstance(assignment, dict):
            raise ValueError("each input assignment must map source id -> coordinates")
        unknown = sorted(set(assignment) - set(dag.sources()))
        if unknown:
            raise ValueError(f"inputs name ids that are not sources of the graph: {unknown}")
        for sid, coords in assignment.items():
            # exact types, as dag_from_doc: a JSON string or boolean is not a number
            if not all(type(c) in (int, float) for c in
                       (coords if isinstance(coords, list) else [coords])):
                raise ValueError(
                    f"source coordinates must be numbers: source {sid!r}: got {coords!r}")
        value = eval_gfunction(dag, assignment)
        # JSON has no NaN or Infinity, so such a value is a failure, not an output
        if not math.isfinite(value):
            raise RuntimeError(f"inputs {assignment} gave the non-finite value {value}")
        values.append(value)

    for v in values:
        print(repr(v))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "deep_eval.json")
        _write_json(path, {"values": values})
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermloc",
        description="Training-free localized-kernel function approximation toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=summary)
        p.set_defaults(func=func)
        params = _PARAMETERS.get(name, {})
        if "output" not in params:
            p.add_argument("--out", help="output directory")
        if params:
            p.add_argument("--config", help="JSON file of parameter defaults")
        for key, default in params.items():
            flag = "--out" if key == "output" else "--" + key.lower().replace("_", "-")
            p.add_argument(flag, dest=key.lower(), type=type(default),
                           choices=NOISE_MODELS if key == "noise" else None,
                           help=f"{_HELP[key]} (default {default})")
        return p

    add("gen-data", _cmd_gen_data, "draw helix training samples to CSV")

    p = add("estimate", _cmd_estimate, "run the kernel estimator on a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV (gen-data format)")
    p.add_argument("--points", help="CSV of evaluation points, header y_1..y_Q, then an "
                                    "optional value column (ignored); blank lines are skipped")
    p.add_argument(
        "--helix-grid", type=int, default=512,
        help="evaluate on this many equidistant helix points (at least 1, default %(default)s)",
    )
    p.add_argument("--ratio", action="store_true",
                   help="append the two-pass ratio reconstruction column")

    add("helix", _cmd_helix, "run the helix reconstruction experiment")

    p = add("rates", _cmd_rates, "kernel and heat smoother error rates in n")
    p.add_argument("--n-list", default="4,8,16,32,64",
                   help="comma-separated increasing degrees, each at least 2 (default %(default)s)")

    p = add("synth-net", _cmd_synth_net, "build a Gaussian network for a kernel")
    p.add_argument("--check", action="store_true",
                   help="compare the network against the kernel on [0,3]")

    p = add("deep-eval", _cmd_deep_eval, "evaluate a DAG composition")
    p.add_argument("--graph", required=True, help="DAG JSON (nodes name constituents)")
    p.add_argument("--inputs", required=True,
                   help="JSON: {source id: coords} or a list of such objects")

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
