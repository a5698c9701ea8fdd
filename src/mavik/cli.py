"""Command-line surface: fit / evaluate / reduce / bench-generic / retrieval-test.

Exit codes: 0 success, 2 malformed or mismatched input, 3 resource cap hit,
4 internal invariant violated (a numerical kernel broke; see the message).
All commands are deterministic given their flags and seeds, except for the
wall-clock times they record: ``timings.json`` of fit and retrieval-test,
and the ``runtime_s`` column of bench-generic's table and ``bench.json``.
Reports embed a full configuration echo.  Table output is printed with three significant
digits; the JSON files keep full precision.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

# One BLAS thread for the whole process, set before numpy loads.  OpenBLAS
# splits its products by thread count, so the rounding -- and the bytes of
# report.json, basis.json and the files read from them -- would depend on
# it.  An inherited value is overwritten, since any other count moves the
# bytes again.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from . import datasets, engine, serialize  # noqa: E402
from .coefficients import DEFAULT_TERM_CAP, expand_many  # noqa: E402
from .core import Basis, constant_poly  # noqa: E402
from .engine import EngineConfig, evaluate  # noqa: E402
from .errors import (  # noqa: E402
    ContractViolation,
    DegenerateInputError,
    InternalInvariantViolation,
    ResourceLimitError,
)
from .postprocess import reduce_basis  # noqa: E402
from .retrieval import load_target_profiles, mode_from_kind, run_retrieval  # noqa: E402

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _fmt3(x):
    return f"{x:0.3g}" if x is not None else "--"


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _path_text(path):
    """``path`` as text for a file's ``meta``: its bytes on disk read as UTF-8,
    the encoding of the files mavik writes, with any other byte escaped.
    Under a locale that is not UTF-8, Python keeps the bytes it cannot
    decode in an argument as lone surrogates, which UTF-8 cannot hold."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _number_list(text, kind, flag):
    try:
        return [kind(s) for s in text.split(",")]
    except ValueError:
        raise ContractViolation(f"{flag} needs comma-separated numbers, got {text!r}") from None


def int64(text):
    """An integer flag's value.  Each one goes into an output file, so it must
    be an int that ``serialize.json_bytes`` writes, one of 64 bits."""
    value = int(text)
    if not -2**63 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"{text} is beyond the 64-bit integers of a JSON file")
    return value


def _engine_config(args, X):
    return EngineConfig(
        epsilon=args.eps,
        mode=mode_from_kind(args.mode, n_points=len(X), z=args.z),
        m_constant=args.m_const,
        max_degree=args.max_degree,
        d_max=args.dmax,
        d_min=args.dmin,
        dedup_degree2=not args.no_dedup2,
        term_cap=args.term_cap,
    )


def cmd_fit(args):
    X = datasets.load_points(args.points)
    if args.scale is not None and args.scale != 1.0:
        X = datasets.scale(X, args.scale)
    config = _engine_config(args, X)
    basis, report = engine.fit(X, config)

    expansions = None
    if args.expand:
        polys = basis.f_polys() + basis.g_polys()
        expansions = dict(zip(polys, expand_many(polys, term_cap=config.term_cap)))
    out = _out_dir(args)
    meta = {
        "config": config.echo(),
        "points_file": _path_text(args.points),
        "input_scale": args.scale if args.scale is not None else 1.0,
    }
    serialize.dump_json(
        serialize.basis_to_json(basis, points=X, meta=meta, expansions=expansions),
        out / "basis.json",
    )
    serialize.dump_json(serialize.report_to_json(report), out / "report.json")
    serialize.dump_json({"wall_time_s": report.wall_time_s}, out / "timings.json")

    print(f"fit: |F|={report.f_total} |G|={report.g_total} "
          f"profile={report.g_counts} termination={report.termination}")
    ext = basis.g_extents()
    if ext:
        print(f"extents: min={_fmt3(min(ext))} max={_fmt3(max(ext))}")
    return EXIT_OK


def cmd_evaluate(args):
    X_new = datasets.load_points(args.points)
    basis = serialize.basis_from_json(serialize.load_json(args.basis, "basis"), X_new)
    F_mat, G_mat = evaluate(basis, X_new)
    out = _out_dir(args)
    serialize.dump_json(
        {
            "schema_version": serialize.SCHEMA_VERSION,
            "n_points": len(X_new),
            "F": F_mat.tolist(),
            "G": G_mat.tolist(),
        },
        out / "evaluation.json",
    )
    norms = np.linalg.norm(G_mat, axis=0)
    print(f"evaluate: F columns={F_mat.shape[1]} G columns={G_mat.shape[1]}")
    if norms.size:
        print(f"G column norms: min={_fmt3(norms.min())} max={_fmt3(norms.max())}")
    return EXIT_OK


def cmd_reduce(args):
    X = datasets.load_points(args.points)
    obj = serialize.load_json(args.basis, "basis")
    # basis_from_json refuses a file that does not hold a JSON object
    recorded = obj.get("points_sha256") if isinstance(obj, dict) else None
    if recorded is not None and recorded != serialize.points_digest(X):
        raise ContractViolation(
            "basis was fitted on a different point set than the one supplied"
        )
    basis = serialize.basis_from_json(obj, X)
    report = reduce_basis(basis, X, threshold=args.threshold)
    out = _out_dir(args)
    stored = dict(zip(basis.g_polys(), basis.g_extents()))
    kept_basis = Basis.from_flat(
        [constant_poly(1.0, X)], report.kept, [stored[p] for p in report.kept]
    )
    kept_basis_obj = serialize.basis_to_json(
        kept_basis, points=X, meta={"reduced_from": _path_text(args.basis)}
    )
    serialize.dump_json(kept_basis_obj, out / "reduced_basis.json")
    serialize.dump_json(serialize.reduction_to_json(report), out / "reduction.json")
    print(f"reduce: kept={len(report.kept)} removed={len(report.removed)} "
          f"threshold={_fmt3(report.threshold)}")
    return EXIT_OK


def cmd_bench_generic(args):
    rows = []
    for dim in _number_list(args.dims, int, "--dims"):
        X = datasets.sample_generic(args.count, dim, args.seed)
        for kind in args.modes.split(","):
            # z = 1: the harness z convention only matters for retrieval.
            config = EngineConfig(epsilon=args.eps, mode=mode_from_kind(kind, z=1.0))
            _, report = engine.fit(X, config)
            rows.append({"count": args.count, "dim": dim, "mode": kind, "seed": args.seed,
                         "epsilon": args.eps, "g_total": report.g_total,
                         "g_profile": report.g_counts, "max_degree": len(report.g_counts) - 1,
                         "runtime_s": report.wall_time_s})
    out = _out_dir(args)
    serialize.dump_json({"schema_version": serialize.SCHEMA_VERSION, "rows": rows},
                        out / "bench.json")
    header = f"{'(count, dim)':>14} {'mode':>6} {'|G|':>5} {'profile':<40} {'max deg':>7} {'runtime [s]':>12}"
    print(header)
    for row in rows:
        label = f"({row['count']}, {row['dim']})"
        print(f"{label:>14} {row['mode']:>6} {row['g_total']:>5} "
              f"{str(row['g_profile']):<40} {row['max_degree']:>7} "
              f"{_fmt3(row['runtime_s']):>12}")
    return EXIT_OK


def cmd_retrieval_test(args):
    target_map = load_target_profiles(args.target)
    if args.variety not in target_map:
        raise ContractViolation(f"no target profile for variety {args.variety!r}")
    target = target_map[args.variety]
    scales = _number_list(args.scales, float, "--scales")
    t0 = time.perf_counter()
    table = run_retrieval(
        args.variety,
        args.noise,
        scales,
        args.runs,
        args.mode,
        target,
        base_seed=args.seed,
        z=args.z,
    )
    elapsed = time.perf_counter() - t0

    rows = []
    print(f"{'dataset':>8} {'mode':>6} {'scale':>8} {'range':>24} {'e.v.':>10} {'success':>10}")
    for alpha in scales:
        agg = table["per_scale"][alpha]
        if agg["valid_eps_range"]:
            rng = f"[{_fmt3(agg['valid_eps_range'][0])}, {_fmt3(agg['valid_eps_range'][1])}]"
        else:
            rng = "--"
        ev = _fmt3(agg["extent_at_unperturbed"])
        print(f"{args.variety:>8} {args.mode:>6} {alpha:>8g} {rng:>24} {ev:>10} "
              f"{agg['successes']:>3}/{agg['runs']}")
        rows.append(
            {
                "variety": args.variety,
                "mode": args.mode,
                "scale": alpha,
                "noise": args.noise,
                **agg,
                "trials": agg["runs"],
                "runs": [asdict(outcome) for outcome in table["runs"][alpha]],
            }
        )
    out = _out_dir(args)
    serialize.dump_json(
        {
            "schema_version": serialize.SCHEMA_VERSION,
            "config": {
                "variety": args.variety,
                "noise": args.noise,
                "scales": scales,
                "runs": args.runs,
                "mode": args.mode,
                "seed": args.seed,
                "target_profile": target,
            },
            "rows": rows,
        },
        out / "retrieval.json",
    )
    serialize.dump_json({"wall_time_s": elapsed}, out / "timings.json")
    return EXIT_OK


def _add_common(p, points=True):
    if points:
        p.add_argument("--points", required=True, help="points file (CSV or JSON)")
    p.add_argument("--out", default="mavik-out", help="output directory")


def _add_fit_flags(p):
    p.add_argument("--eps", type=float, default=1e-6, help="vanishing threshold")
    p.add_argument("--mode", default="grad", choices=["vca", "coeff", "grad"])
    p.add_argument("--z", type=float, default=None,
                   help="gradient-norm divisor (CLI default sqrt(|X|): mean "
                        "per-point gradient normalized; library default 1)")
    p.add_argument("--m-const", type=float, default=None,
                   help="constant polynomial value (default mode-dependent)")
    p.add_argument("--max-degree", type=int64, default=None)
    p.add_argument("--dmax", type=int64, default=None, help="dimension rule upper target")
    p.add_argument("--dmin", type=int64, default=None, help="dimension rule lower target")
    p.add_argument("--no-dedup2", action="store_true",
                   help="keep symmetric duplicate products at degree 2")
    p.add_argument("--term-cap", type=int64, default=DEFAULT_TERM_CAP,
                   help="monomial cap of coefficient expansions in coeff mode "
                        "and --expand (resource guard)")
    p.add_argument("--scale", type=float, default=None,
                   help="multiply the input points by this factor before fitting")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mavik",
        description="Monomial-agnostic approximate vanishing ideal computation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a basis to a point set")
    _add_common(p)
    _add_fit_flags(p)
    p.add_argument("--expand", action="store_true",
                   help="embed coefficient expansions in basis.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="replay a saved basis on new points")
    _add_common(p)
    p.add_argument("--basis", required=True, help="basis.json from fit")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reduce", help="remove redundant basis polynomials")
    _add_common(p)
    p.add_argument("--basis", required=True, help="basis.json from fit on the same points")
    p.add_argument("--threshold", type=float, default=1e-6,
                   help="relative gradient-residual threshold")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("bench-generic", help="basis-size benchmark on uniform points")
    _add_common(p, points=False)
    p.add_argument("--dims", default="2,3,4,5")
    p.add_argument("--count", type=int64, default=50)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--modes", default="vca,coeff,grad")
    p.add_argument("--seed", type=int64, default=0)
    p.set_defaults(func=cmd_bench_generic)

    p = sub.add_parser("retrieval-test", help="configuration retrieval with epsilon search")
    _add_common(p, points=False)
    p.add_argument("--variety", required=True, choices=list(datasets.VARIETIES))
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--scales", default="0.01,0.1,1.0,10,100")
    p.add_argument("--runs", type=int64, default=20)
    p.add_argument("--mode", default="grad", choices=["vca", "coeff", "grad"])
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--seed", type=int64, default=0)
    p.add_argument("--target", default=None, help="target profile JSON (default bundled)")
    p.set_defaults(func=cmd_retrieval_test)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ContractViolation, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InternalInvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
