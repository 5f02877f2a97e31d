"""Batch command line front end.

Each subcommand runs one experiment on a representation and returns
its documented CSV or JSON outputs, as ordered (path, text) pairs, and a
one-line scalar summary.  main reads the representation file, writes
the files in order and prints "<summary> -> <out>".  The error's type
picks the exit code: 0 success, 2 file errors (OSError) and command-line
usage errors, such as a non-number in a scalar option, 3 precondition
violations (PreconditionError), such as a malformed representation file
or a --phi or --probe entry that is not a number, 4 other numerical
failures (LimconeError).  A command whose computation fails writes
nothing, so an existing output file is left as it was; when a write
fails, the files already written are removed.  All numeric output
carries 17 significant digits and is bitwise reproducible for a fixed
seed.
"""

import argparse
import json
import os
import re
import sys

import numpy as np

from . import bulk, counting, growth, pressure, spectra, words
from .errors import InvalidInputError, InvalidParameterError, LimconeError, PreconditionError
from .reps import load_rep
from .spectra import Functional

EXIT_FILE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


def _fmt(x, spec=".17g") -> str:
    return "-inf" if counting.is_neg_infinity(x) else format(float(x), spec)


def _csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if not isinstance(x, str) else x for x in row))
    return path, "\n".join(lines) + "\n"


def _json(path, obj):
    return path, json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _vector(values, dim, what):
    """The d finite numbers of one --phi or --probe argument."""
    try:
        v = np.array([float(x) for x in values])
    except ValueError as exc:
        raise InvalidParameterError(f"{what} entries must be numbers: {exc}") from exc
    if len(v) != dim:
        raise InvalidParameterError(f"{what} needs {dim} entries, got {len(v)}")
    if not np.isfinite(v).all():
        raise InvalidParameterError(f"{what} entries must be finite")
    return v


def _probes(values, dim):
    """Unit probe directions on the sum-zero plane, where psi is defined,
    from the repeated --probe arguments."""
    probes = []
    for p in values:
        p = _vector(p, dim, "probe")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(p)
        if not 0 < norm < np.inf:
            raise InvalidParameterError("probe must be nonzero, with a finite norm")
        p = p / norm
        if abs(p.sum()) > 1e-9 * dim:
            raise InvalidParameterError("probe must lie on the sum-zero plane")
        probes.append(p)
    return probes


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_spectra(rep, args):
    k, d = rep.num_generators, rep.dim
    letters = [words.format_word([l], rep.labels) for l in range(2 * k)]
    if len(set(letters)) < len(letters) or not all(re.fullmatch(r'[^\s,"]+', s) for s in letters):
        raise InvalidInputError(f"labels print letters {letters}: not distinct, or not CSV-safe")
    header = ["word", "len"] + [f"a{i+1}" for i in range(d)] + [f"l{i+1}" for i in range(d)]
    lines, levels = [",".join(header)], words.format_levels(k, args.max_len, rep.labels)
    for n, lo, fwd, bwd in bulk.word_products(rep, args.max_len):
        if lo == 0:
            names = next(levels)
        row = f"%s,{n}," + ",".join(["%.17g"] * (2 * d))
        values = np.hstack([spectra.batched_cartan(fwd, bwd), spectra.batched_jordan(fwd, bwd)])
        lines += [row % (w, *v) for w, v in zip(names[lo:lo + len(fwd)], values.tolist())]
    return [(args.out, "\n".join(lines) + "\n")], (
        f"spectra: {len(lines) - 1} words up to length {args.max_len}")


def _cmd_cone(rep, args):
    if args.kind == "limit":
        hull = counting.limit_cone(rep, args.max_len)
    else:
        floor = args.norm_floor
        if floor is None:
            raise InvalidParameterError("asymptotic cone needs --norm-floor")
        hull = counting.asymptotic_cone(rep, args.max_len, floor)
    header = [f"dir_{i+1}" for i in range(rep.dim)]
    return [_csv(args.out, header, [list(p) for p in hull.hull])], (
        f"cone[{args.kind}]: {len(hull.hull)} extreme direction(s), "
        f"width {hull.width:.6g}, area {hull.cone_area():.6g}"
    )


def _cmd_exponent(rep, args):
    phi = Functional(_vector(args.phi, rep.dim, "phi"))
    est = counting.critical_exponent_direct(rep, phi, args.max_len, args.mode)
    rows = [[t, c, np.log(c)] for t, c in zip(est.thresholds, est.counts)]
    return ([_csv(args.out, ["threshold", "count", "log_count"], rows)],
            f"h = {est.value:.10g} (stderr {est.std_error:.3g})")


def _cmd_pressure(rep, args):
    phi = Functional(_vector(args.phi, rep.dim, "phi"))
    table = pressure.pressure_table(rep, phi, args.t, args.n_max)
    rows = [[n, args.t, p] for n, p in sorted(table.levels.items())]
    detail = pressure.pressure_root_detail(rep, phi, n_max=args.n_max)
    files = [_csv(args.out, ["n", "t", "P_n"], rows)]
    if args.json_out:
        files.append(_json(args.json_out, {
            "phi": [float(x) for x in phi.coeffs], "root": detail.value, "n_max": args.n_max,
            "extrapolation_flag": bool(detail.fallback or table.oscillating),
        }))
    return files, f"root = {detail.value:.10g}, P_ext({args.t}) = {table.extrapolated:.10g}"


def _cmd_boundary(rep, args):
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
    form = growth.growth_form(body)
    return [_json(args.out, records)], f"boundary: {len(body)} points, h = {form.h:.10g}"


def _cmd_psi(rep, args):
    probes = _probes(args.probe, rep.dim)
    if args.method in ("duality", "both"):
        body = growth.boundary_curve(
            rep, resolution=args.resolution, n_max=args.n_max, threads=args.threads
        )
    rows = []
    for p in probes:
        if args.method in ("duality", "both"):
            rows.append(list(p) + [growth.psi_from_duality(body, p), "duality"])
        if args.method in ("direct", "both"):
            sample = counting.growth_indicator_direct(rep, p, args.half_angle, args.max_len)
            rows.append(list(p) + [sample.value, "direct-count"])
    d = rep.dim
    if args.method == "direct":
        header = [f"dir_{i+1}" for i in range(d)] + ["psi"]
        table = _csv(args.out, header, [r[:-1] for r in rows])
    else:
        header = [f"v{i+1}" for i in range(d)] + ["psi", "method"]
        table = _csv(args.out, header, rows)
    return [table], f"psi at {len(probes)} probe(s), last = {_fmt(rows[-1][-2], '.10g')}"


def _cmd_entropy(rep, args):
    phi = Functional(_vector(args.phi, rep.dim, "phi"))
    root, value = pressure._root_and_entropy(rep, phi, args.n_max)
    record = {"phi": [float(x) for x in phi.coeffs], "root": root, "entropy": value,
              "n": args.n_max}
    return [_json(args.out, record)], f"entropy = {value:.10g}"


def _cmd_counting_check(rep, args):
    table = counting.orbit_count_ratio(rep, args.index, args.max_len)
    rows = list(zip(table.thresholds, table.ratios))
    return [_csv(args.out, ["t", "ratio"], rows)], (
        f"h = {table.h:.10g}, ratio at largest t = {table.ratios[-1]:.6g}, "
        f"trend toward 1: {table.trend_toward_one()}"
    )


def _cmd_perturb_scan(rep, args):
    probes = _probes(args.probe, rep.dim)
    rows = growth.continuity_scan(
        rep, args.epsilons, args.seed, probes,
        n_max=args.n_max, resolution=args.resolution,
    )
    table = _csv(args.out, ["epsilon", "hausdorff", "dpsi_max", "dh"],
                 [[r.epsilon, r.hausdorff, r.dpsi_max, r.dh] for r in rows])
    ok = sum(1 for r in rows if not r.failed)
    return [table], f"perturb-scan: {ok}/{len(rows)} ladder steps"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads any argument starting "-<digit>",
    "-.<digit>", "-inf" or "-nan" (any case, so -Infinity too) as a
    negative number.  Plain argparse counts only the forms -12 and -1.5,
    so e-notation such as --phi 1 0 -1e-3, which repr(float) writes below
    1e-4, was refused as an unknown option, and -inf exited as a usage
    error instead of reaching the finiteness checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _build_parser():
    ap = _Parser(
        prog="limcone",
        description="limit cones, critical exponents and growth indicators "
        "of matrix free groups",
    )
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the perturbations (read by perturb-scan only)")
    ap.add_argument("--threads", type=int, default=1,
                    help="must be 1: boundary and psi trace the dual body on one thread")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--rep", required=True, help="representation file")
        p.add_argument("--out", required=True, help="output file")
        p.set_defaults(fn=fn)
        return p

    p = add("spectra", _cmd_spectra, help="Cartan/Jordan dump per word (17 digits, but Jordan "
            "values of words not cyclically reduced are only good to about 1e-10)")
    p.add_argument("--max-len", type=int, default=6)

    p = add("cone", _cmd_cone, help="limit or asymptotic cone hull")
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--kind", choices=["limit", "asymptotic"], default="limit")
    p.add_argument("--norm-floor", type=float, default=None)

    p = add("exponent", _cmd_exponent, help="critical exponent by direct counting")
    p.add_argument("--phi", nargs="+", required=True)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--mode", choices=["element", "conjugacy"], default="element")

    p = add("pressure", _cmd_pressure, help="level pressures and pressure root (P_ext well "
            "above the root loses digits to cancellation)")
    p.add_argument("--phi", nargs="+", required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=pressure.DEFAULT_N_MAX)
    p.add_argument("--json-out", default=None)

    p = add("boundary", _cmd_boundary, help="trace the dual body boundary")
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--n-max", type=int, default=pressure.DEFAULT_N_MAX)

    p = add("psi", _cmd_psi, help="growth indicator at probe directions")
    p.add_argument("--probe", nargs="+", action="append", required=True)
    p.add_argument("--method", choices=["duality", "direct", "both"], default="both")
    p.add_argument("--half-angle", type=float, default=0.15)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--n-max", type=int, default=pressure.DEFAULT_N_MAX)

    p = add("entropy", _cmd_entropy, help="entropy of a boundary functional")
    p.add_argument("--phi", nargs="+", required=True)
    p.add_argument("--n-max", type=int, default=pressure.DEFAULT_N_MAX)

    p = add("counting-check", _cmd_counting_check, help="precise counting ratio table")
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--max-len", type=int, default=12)

    p = add("perturb-scan", _cmd_perturb_scan, help="continuity under deformation")
    p.add_argument("--epsilons", nargs="+", required=True, type=float)
    p.add_argument("--probe", nargs="+", action="append", required=True)
    p.add_argument("--n-max", type=int, default=pressure.DEFAULT_N_MAX)
    p.add_argument("--resolution", type=int, default=16)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    written = []
    try:
        files, summary = args.fn(load_rep(args.rep), args)
        for path, text in files:
            written.append(path)
            with open(path, "w") as f:
                f.write(text)
    except (OSError, LimconeError) as exc:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        if isinstance(exc, OSError):
            code, what = EXIT_FILE, "file error"
        elif isinstance(exc, PreconditionError):
            code, what = EXIT_PRECONDITION, "precondition error"
        else:
            code, what = EXIT_NUMERICAL, "numerical failure"
        print(f"{what}: {exc}", file=sys.stderr)
        return code
    print(f"{summary} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
