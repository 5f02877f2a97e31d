"""Batch command line front end.

Each subcommand reads a representation file, runs one experiment and
writes the documented CSV or JSON output, printing a one-line scalar
summary.  Exit codes: 0 success, 2 file errors, 3 precondition
violations, 4 numerical failures.  Partially written outputs are
removed on failure.  All numeric output carries 17 significant digits
and is bitwise reproducible for a fixed seed, independent of the
worker-thread count.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import bulk, counting, growth, pressure, words
from .errors import (
    BracketFailureError,
    DegenerateConeError,
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
    LimconeError,
    NotInDualConeError,
    NotOnBoundaryError,
    PerturbationFailedError,
    SpectralFailureError,
    UndefinedGapError,
)
from .reps import load_rep
from .spectra import Functional

EXIT_FILE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

_PRECONDITION = (
    InvalidParameterError,
    InvalidInputError,
    NotInDualConeError,
    NotOnBoundaryError,
    InsufficientDataError,
    UndefinedGapError,
)
_NUMERICAL = (
    SpectralFailureError,
    BracketFailureError,
    DegenerateConeError,
    PerturbationFailedError,
)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


class _Output:
    """Collects output files and removes them all if the command fails."""

    def __init__(self):
        self.paths = []

    def write_text(self, path, text):
        self.paths.append(path)
        with open(path, "w") as f:
            f.write(text)

    def write_csv(self, path, header, rows):
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(x) if not isinstance(x, str) else x for x in row))
        self.write_text(path, "\n".join(lines) + "\n")

    def write_json(self, path, obj):
        self.write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def cleanup(self):
        for p in self.paths:
            try:
                os.remove(p)
            except OSError:
                pass


def _phi_from_args(values, dim):
    coeffs = np.array([float(x) for x in values])
    if len(coeffs) != dim:
        raise InvalidParameterError(f"phi needs {dim} coefficients, got {len(coeffs)}")
    return Functional(coeffs)


def _load(args):
    if not os.path.exists(args.rep):
        raise FileNotFoundError(args.rep)
    return load_rep(args.rep)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_spectra(args, out):
    rep = _load(args)
    from .spectra import batched_cartan, batched_jordan

    d = rep.dim
    header = ["word", "len"] + [f"a{i+1}" for i in range(d)] + [f"l{i+1}" for i in range(d)]
    rows = []
    for n, lo, fwd, bwd in bulk.word_products(rep, args.max_len):
        W = words.word_level_array(rep.num_generators, n)[lo:lo + len(fwd)]
        a = batched_cartan(fwd, bwd)
        l = batched_jordan(fwd, bwd)
        for j, row in enumerate(W):
            word = words.format_word(words.Word(tuple(int(x) for x in row)), rep.labels)
            rows.append([word, n] + list(a[j]) + list(l[j]))
    out.write_csv(args.out, header, rows)
    print(f"spectra: {len(rows)} words up to length {args.max_len} -> {args.out}")


def _cmd_cone(args, out):
    rep = _load(args)
    if args.kind == "limit":
        hull = counting.limit_cone(rep, args.max_len)
    else:
        floor = args.norm_floor
        if floor is None:
            raise InvalidParameterError("asymptotic cone needs --norm-floor")
        hull = counting.asymptotic_cone(rep, args.max_len, floor)
    header = [f"dir_{i+1}" for i in range(rep.dim)]
    out.write_csv(args.out, header, [list(p) for p in hull.hull])
    print(
        f"cone[{args.kind}]: {len(hull.hull)} extreme direction(s), "
        f"width {hull.width:.6g}, area {hull.cone_area():.6g} -> {args.out}"
    )


def _cmd_exponent(args, out):
    rep = _load(args)
    phi = _phi_from_args(args.phi, rep.dim)
    est = counting.critical_exponent_direct(rep, phi, args.max_len, args.mode)
    rows = [[t, c, np.log(c)] for t, c in zip(est.thresholds, est.counts)]
    out.write_csv(args.out, ["threshold", "count", "log_count"], rows)
    print(f"h = {est.value:.10g} (stderr {est.std_error:.3g}) -> {args.out}")


def _cmd_pressure(args, out):
    rep = _load(args)
    phi = _phi_from_args(args.phi, rep.dim)
    table = pressure.pressure_table(rep, phi, args.t, args.n_max)
    rows = [[n, args.t, p] for n, p in sorted(table.levels.items())]
    out.write_csv(args.out, ["n", "t", "P_n"], rows)
    detail = pressure.pressure_root_detail(rep, phi, n_max=args.n_max)
    if args.json_out:
        out.write_json(
            args.json_out,
            {
                "phi": [float(x) for x in phi.coeffs],
                "root": detail.value,
                "n_max": args.n_max,
                "extrapolation_flag": bool(detail.fallback or table.oscillating),
            },
        )
    print(f"root = {detail.value:.10g}, P_ext({args.t}) = {table.extrapolated:.10g} -> {args.out}")


def _cmd_boundary(args, out):
    rep = _load(args)
    body = growth.boundary_curve(
        rep, resolution=args.resolution, n_max=args.n_max, threads=args.threads
    )
    records = [
        {
            "direction": [float(x) for x in bp.direction.coeffs],
            "s_star": bp.s_star,
            "gibbs_dir": [float(x) for x in bp.gibbs_vector],
            "entropy": bp.entropy,
        }
        for bp in body.boundary
    ]
    out.write_json(args.out, records)
    form = growth.growth_form(body)
    print(f"boundary: {len(body)} points, h = {form.h:.10g} -> {args.out}")


def _cmd_psi(args, out):
    rep = _load(args)
    body = growth.boundary_curve(
        rep, resolution=args.resolution, n_max=args.n_max, threads=args.threads
    )
    probes = [np.asarray(p, dtype=float) for p in args.probe]
    probes = [p / np.linalg.norm(p) for p in probes]
    rows = []
    last = None
    for p in probes:
        if args.method in ("duality", "both"):
            val = growth.psi_from_duality(body, p)
            sval = "-inf" if counting.is_neg_infinity(val) else val
            rows.append(list(p) + [sval, "duality"])
            last = val
        if args.method in ("direct", "both"):
            sample = counting.growth_indicator_direct(rep, p, args.half_angle, args.max_len)
            sval = "-inf" if counting.is_neg_infinity(sample.value) else sample.value
            rows.append(list(p) + [sval, "direct-count"])
            last = sample.value
    d = rep.dim
    if args.method == "direct":
        header = [f"dir_{i+1}" for i in range(d)] + ["psi"]
        out.write_csv(args.out, header, [r[:-1] for r in rows])
    else:
        header = [f"v{i+1}" for i in range(d)] + ["psi", "method"]
        out.write_csv(args.out, header, rows)
    shown = "-inf" if counting.is_neg_infinity(last) else f"{last:.10g}"
    print(f"psi at {len(probes)} probe(s), last = {shown} -> {args.out}")


def _cmd_entropy(args, out):
    rep = _load(args)
    phi = _phi_from_args(args.phi, rep.dim)
    value = pressure.entropy_of_state(rep, phi, args.n_max)
    root = pressure.pressure_root(rep, phi, n_max=args.n_max)
    out.write_json(
        args.out,
        {
            "phi": [float(x) for x in phi.coeffs],
            "root": root,
            "entropy": value,
            "n": args.n_max,
        },
    )
    print(f"entropy = {value:.10g} -> {args.out}")


def _cmd_counting_check(args, out):
    rep = _load(args)
    table = counting.orbit_count_ratio(rep, args.index, args.max_len)
    rows = list(zip(table.thresholds, table.ratios))
    out.write_csv(args.out, ["t", "ratio"], rows)
    print(
        f"h = {table.h:.10g}, ratio at largest t = {table.ratios[-1]:.6g}, "
        f"trend toward 1: {table.trend_toward_one()} -> {args.out}"
    )


def _cmd_perturb_scan(args, out):
    rep = _load(args)
    probes = [np.asarray(p, dtype=float) for p in args.probe]
    probes = [p / np.linalg.norm(p) for p in probes]
    rows = growth.continuity_scan(
        rep, [float(e) for e in args.epsilons], args.seed, probes,
        n_max=args.n_max, resolution=args.resolution,
    )
    out.write_csv(
        args.out,
        ["epsilon", "hausdorff", "dpsi_max", "dh"],
        [[r.epsilon, r.hausdorff, r.dpsi_max, r.dh] for r in rows],
    )
    ok = sum(1 for r in rows if not r.failed)
    print(f"perturb-scan: {ok}/{len(rows)} ladder steps -> {args.out}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="limcone",
        description="limit cones, critical exponents and growth indicators "
        "of matrix free groups",
    )
    ap.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    ap.add_argument("--threads", type=int, default=1, help="worker threads")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--rep", required=True, help="representation file")
        p.add_argument("--out", required=True, help="output file")
        p.set_defaults(fn=fn)
        return p

    p = add("spectra", _cmd_spectra, help="Cartan/Jordan dump per word")
    p.add_argument("--max-len", type=int, default=6)

    p = add("cone", _cmd_cone, help="limit or asymptotic cone hull")
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--kind", choices=["limit", "asymptotic"], default="limit")
    p.add_argument("--norm-floor", type=float, default=None)

    p = add("exponent", _cmd_exponent, help="critical exponent by direct counting")
    p.add_argument("--phi", nargs="+", required=True)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--mode", choices=["element", "conjugacy"], default="element")

    p = add("pressure", _cmd_pressure, help="level pressures and pressure root")
    p.add_argument("--phi", nargs="+", required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--json-out", default=None)

    p = add("boundary", _cmd_boundary, help="trace the dual body boundary")
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--n-max", type=int, default=12)

    p = add("psi", _cmd_psi, help="growth indicator at probe directions")
    p.add_argument("--probe", nargs="+", action="append", required=True, type=float)
    p.add_argument("--method", choices=["duality", "direct", "both"], default="both")
    p.add_argument("--half-angle", type=float, default=0.15)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--n-max", type=int, default=12)

    p = add("entropy", _cmd_entropy, help="entropy of a boundary functional")
    p.add_argument("--phi", nargs="+", required=True)
    p.add_argument("--n-max", type=int, default=12)

    p = add("counting-check", _cmd_counting_check, help="precise counting ratio table")
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--max-len", type=int, default=12)

    p = add("perturb-scan", _cmd_perturb_scan, help="continuity under deformation")
    p.add_argument("--epsilons", nargs="+", required=True, type=float)
    p.add_argument("--probe", nargs="+", action="append", required=True, type=float)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--resolution", type=int, default=16)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = _Output()
    try:
        args.fn(args, out)
    except (FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
        out.cleanup()
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except _PRECONDITION as exc:
        out.cleanup()
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _NUMERICAL as exc:
        out.cleanup()
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LimconeError as exc:
        out.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
