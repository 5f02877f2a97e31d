"""The four benchmark workloads: scan, count, dual and cli.

Each workload is built by its set-up (everything before the first timed
operation), draws the inputs of operation i from its own seeded
generator, runs one operation through the public limcone API, and
checks the operation's outputs in a gate that runs outside the timed
region.  A gate returns the list of checks the operation missed.
"""

import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

from limcone import bulk, counting, growth, pressure, words
from limcone.errors import LimconeError
from limcone.reps import make_schottky, perturb, save_rep, sym_power_embed
from limcone.spectra import Functional, batched_jordan

N = 12                       # word / class length cap of every workload
ORACLE_DPS = 60              # mpmath digits of the spectrum oracle
ORACLE_TOL = 1e-9            # as in test_bulk_split_extreme_conditioning_vs_mpmath
ORACLE_SAMPLES = 3           # length-N words checked per operation
ROOT_TOL = 1e-5
BENCH_DIR = Path(__file__).resolve().parent


def _fuchsian_pair():
    s2 = make_schottky([2.0, 2.0], [0.0, np.pi / 2])
    return s2, sym_power_embed(s2, 3)


def chamber_direction(t):
    """Unit d = 3 chamber vector with gap coordinate v2 / (v1 - v3) = t."""
    v = np.array([(1.0 - t) / 2.0, t, (-1.0 - t) / 2.0])
    return v / np.linalg.norm(v)


def _rss_mb(kb):
    return kb * 1024 / 1e6


def _mp_log_spectrum(rep, letters, kind):
    """Sorted, centred log spectrum of the word's product at ORACLE_DPS
    digits, from the same float generator entries the bulk path uses."""
    mats = rep.letter_matrices()
    with mp.workdps(ORACLE_DPS):
        acc = mp.eye(rep.dim)
        for l in letters:
            acc = acc * mp.matrix(mats[int(l)].tolist())
        if kind == "jordan":
            vals = [abs(e) for e in mp.eig(acc, left=False, right=False)]
        else:
            vals = list(mp.svd_r(acc, compute_uv=False))
        logs = np.sort([float(mp.log(v)) for v in vals])[::-1]
    return logs - logs.mean()


def _oracle_misses(rep, rows, got, kind):
    misses = []
    for letters, value in zip(rows, got):
        err = float(np.abs(_mp_log_spectrum(rep, letters, kind) - value).max())
        if not err < ORACLE_TOL:
            misses.append(f"{kind} oracle error {err:.3e} on word {list(map(int, letters))}")
    return misses


class ReferenceKernel:
    """Fixed numpy and Python work that calls no limcone code.

    Timed right before and right after every operation: the host's
    speed drifts by tens of percent over minutes, and an operation's
    time divided by the reference time around it cancels that drift
    while still moving with any change to limcone itself.
    """

    def __init__(self):
        self.a, self.b = np.random.default_rng(12345).normal(size=(2, 4000, 3, 3))

    def __call__(self):
        t0 = time.perf_counter()
        c = self.a @ self.b
        np.linalg.svd(c, compute_uv=False)
        np.linalg.eigvals(c)
        s = 0
        for j in range(40000):
            s += j
        return time.perf_counter() - t0


class Workload:
    round_ops = 1          # operations per round; a run ends on a round boundary

    def peak_rss_mb(self):
        return _rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def extra(self):
        """Workload-specific ratios printed in the report."""
        return {}

    def output_mb_per_op(self):
        return 0.0


class Scan(Workload):
    """Full dual-route analysis of a fresh seeded perturbation of f3."""

    name = "scan"
    PROBES = 5

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        _, self.f3 = _fuchsian_pair()
        for n in range(1, N + 1):
            words.class_level_arrays(2, n)
        self.level_n = words.class_level_arrays(2, N)[0]
        self.probes = self.finite = 0

    def make_input(self, i):
        eps = float(self.rng.uniform(0.02, 0.08))
        rep = perturb(self.f3, eps, int(self.rng.integers(2**31)))
        return {"rep": rep, "probe_u": self.rng.uniform(0.1, 0.9, self.PROBES),
                "sample": self.rng.integers(len(self.level_n), size=ORACLE_SAMPLES)}

    def op(self, inp, tracer=None):
        rep = inp["rep"]
        cs = bulk.class_spectra(rep, N)
        cone = counting.limit_cone(rep, N)
        try:
            body = growth.boundary_curve(rep, resolution=16, threads=1)
            form = growth.growth_form(body)
        except LimconeError:
            body = form = None
        roots = []
        for i in (1, 2):
            try:
                roots.append(pressure.pressure_root(rep, Functional.gap(3, i)))
            except LimconeError:
                roots.append(None)
        lo, hi = cone.interval
        psis = [growth.psi_from_duality(body, chamber_direction(lo + u * (hi - lo)))
                if body is not None else counting.NEG_INFINITY for u in inp["probe_u"]]
        return {"cs": cs, "form": form, "roots": roots, "psis": psis}

    def gate(self, inp, out):
        self.probes += len(out["psis"])
        self.finite += sum(isinstance(p, float) for p in out["psis"])
        misses = [f"pressure root {r} not finite and positive" for r in out["roots"]
                  if r is not None and not (np.isfinite(r) and r > 0)]
        idx = inp["sample"]
        return misses + _oracle_misses(inp["rep"], self.level_n[idx],
                                       out["cs"].jordan[N][idx], "jordan")

    def extra(self):
        return {"psi_coverage": self.finite / self.probes if self.probes else float("nan")}


class Count(Workload):
    """Element-route counting of a fresh representation; even operations
    take a d = 2 Schottky pair, odd ones a d = 3 perturbation.  A round is
    two such pairs, so every run measures the same four-operation mix."""

    name = "count"
    round_ops = 4
    NORM_FLOOR = 1.0          # keeps nearly every word, so the cone work does not vary by seed

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        _, self.f3 = _fuchsian_pair()
        for n in range(1, N + 1):
            words.word_level_array(2, n)
        self.level_n = words.word_level_array(2, N)
        self.offset = sum(words.count_words(2, n) for n in range(1, N))
        self.exponents = self.degenerate = 0

    def make_input(self, i):
        if i % 2 == 0:
            rep = make_schottky(self.rng.uniform(1.5, 2.5, 2),
                                [0.0, float(self.rng.uniform(np.pi / 3, 2 * np.pi / 3))])
            probes = [np.array([1.0, -1.0]) / np.sqrt(2.0)]
        else:
            eps = float(self.rng.uniform(0.02, 0.08))
            rep = perturb(self.f3, eps, int(self.rng.integers(2**31)))
            probes = [chamber_direction(t) for t in self.rng.uniform(-0.05, 0.05, 3)]
        return {"rep": rep, "probes": probes,
                "sample": self.rng.integers(len(self.level_n), size=ORACLE_SAMPLES)}

    def op(self, inp, tracer=None):
        rep = inp["rep"]
        es = bulk.element_spectra(rep, N)
        est = counting.critical_exponent_direct(rep, Functional.gap(rep.dim, 1), N, mode="element")
        psi = [counting.growth_indicator_direct(rep, p, 0.15, N).value for p in inp["probes"]]
        cone = counting.asymptotic_cone(rep, N, self.NORM_FLOOR)
        return {"es": es, "h": est.value, "psi": psi, "cone": cone}

    def gate(self, inp, out):
        # A zero-width complete window gives a flat count and a slope of
        # exactly 0 with zero standard error instead of an error: a known
        # estimator defect, reported as a ratio rather than hidden.
        self.exponents += 1
        self.degenerate += out["h"] == 0.0
        idx = inp["sample"]
        return _oracle_misses(inp["rep"], self.level_n[idx],
                              out["es"].cartan[self.offset + idx], "cartan")

    def extra(self):
        return {"degenerate_exponent_ratio": self.degenerate / self.exponents}


class Dual(Workload):
    """Convex-duality layer on fixed representations p3 and s2 whose class
    spectra are built in set-up."""

    name = "dual"

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        s2, f3 = _fuchsian_pair()
        self.reps = {"p3": perturb(f3, 0.05, 1), "s2": s2}
        for rep in self.reps.values():
            bulk.class_spectra(rep, N)
        self.first = None

    def make_input(self, i):
        return {"t": float(self.rng.uniform(0.3, 1.0)),
                "weights": self.rng.uniform(0.5, 1.5, 2),
                "audit_seed": int(self.rng.integers(2**31))}

    def op(self, inp, tracer=None):
        out = {}
        for key, rep in self.reps.items():
            body = growth.boundary_curve(rep, resolution=64, threads=1)
            form = growth.growth_form(body)
            audit = growth.concavity_audit(body, samples=32, seed=inp["audit_seed"])
            a, b = inp["weights"]
            phi = (Functional.gap(3, 1) * a + Functional.gap(3, 2) * b if rep.dim == 3
                   else Functional.gap(2, 1) * a)
            table = pressure.pressure_table(rep, phi, inp["t"])
            out[key] = (body, form, audit, table)
        return out

    def gate(self, inp, out):
        misses = []
        for key, (body, form, audit, table) in out.items():
            if not (np.isfinite(form.h) and form.h > 0):
                misses.append(f"{key}: growth rate {form.h} not finite and positive")
            if audit.pairs_tested and not audit.concave_ok:
                misses.append(f"{key}: reconstructed psi not concave")
            if not all(np.isfinite(v) for v in table.levels.values()):
                misses.append(f"{key}: non-finite level pressure")
        bodies = {key: body.functionals() for key, (body, *_) in out.items()}
        if self.first is None:
            self.first = bodies
            for key, rep in self.reps.items():
                root = pressure.pressure_root(rep, None, weight_hook=pressure.word_length_weight)
                if not abs(root - np.log(3.0)) < ROOT_TOL:
                    misses.append(f"{key}: word-length root {root!r} is not log 3")
                for bp in out[key][0].boundary:
                    r = pressure.pressure_root(rep, bp.functional)
                    if not abs(r - 1.0) < ROOT_TOL:
                        misses.append(f"{key}: boundary functional has root {r!r}, not 1")
        else:
            # fixed inputs: every later boundary must equal the gated first one
            for key, f in bodies.items():
                if not np.array_equal(f, self.first[key]):
                    misses.append(f"{key}: boundary differs from the first operation's")
        return misses


# ---------------------------------------------------------------------------
# cli: one cold process per operation
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _fmt_args(values):
    return [repr(float(x)) for x in values]


def _significant(token):
    """Significant digits shown in a printed number."""
    return max(len(token.split("e")[0].lstrip("-").replace(".", "").lstrip("0")), 1)


def _parse_cell(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [[_parse_cell(c) for c in ln.split(",")] for ln in lines[1:]]


class Cli(Workload):
    """Cold `python -m limcone.cli` processes, one subcommand each; one
    round is a cycle of seven good commands and two bad inputs."""

    name = "cli"

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.work = Path(workdir)
        self.work.mkdir(parents=True, exist_ok=True)
        _, f3 = _fuchsian_pair()
        self.rep = perturb(f3, float(self.rng.uniform(0.02, 0.08)), int(self.rng.integers(2**31)))
        self.rep_path = self.work / "rep.txt"
        save_rep(self.rep, self.rep_path)
        theta = self.rng.uniform(-0.3, 0.3)
        u = np.array([1.0, theta, -1.0 - theta])
        self.phi_boundary = growth.boundary_point(self.rep, u).functional.coeffs
        self.phi_pressure = Functional.gap(3, 1) * self.rng.uniform(0.5, 1.5) + Functional.gap(3, 2)
        self.t = float(self.rng.uniform(0.3, 1.0))
        self.probe = chamber_direction(float(self.rng.uniform(-0.02, 0.02)))
        self.commands = self._commands()
        self.round_ops = len(self.commands)
        self.env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"))
        self.max_rss_kb = 0
        self.output_bytes = {}
        self.ref = None

    def _out(self, name):
        return str(self.work / name)

    def _commands(self):
        rep = str(self.rep_path)
        phi_p = _fmt_args(self.phi_pressure.coeffs)
        return [
            ("cone", 0, ["cone", "--rep", rep, "--out", self._out("cone.csv")]),
            ("pressure", 0, ["pressure", "--rep", rep, "--out", self._out("pressure.csv"),
                             "--phi", *phi_p, "--t", repr(self.t),
                             "--json-out", self._out("pressure.json")]),
            ("boundary", 0, ["boundary", "--rep", rep, "--out", self._out("boundary.json")]),
            ("psi", 0, ["psi", "--rep", rep, "--out", self._out("psi.csv"), "--method", "duality",
                        "--probe", *_fmt_args(self.probe)]),
            ("entropy", 0, ["entropy", "--rep", rep, "--out", self._out("entropy.json"),
                            "--phi", *_fmt_args(self.phi_boundary)]),
            ("exponent", 0, ["exponent", "--rep", rep, "--out", self._out("exponent.csv"),
                             "--phi", *phi_p, "--mode", "conjugacy"]),
            ("spectra", 0, ["spectra", "--rep", rep, "--out", self._out("spectra.csv"),
                            "--max-len", "8"]),
            ("missing-rep", 2, ["cone", "--rep", self._out("absent.txt"),
                                "--out", self._out("absent.csv")]),
            ("off-boundary", 3, ["entropy", "--rep", rep, "--out", self._out("offboundary.json"),
                                 "--phi", *phi_p]),
        ]

    def make_input(self, i):
        return self.commands[i % len(self.commands)]

    def op(self, inp, tracer=None):
        label, _, argv = inp
        out_path = Path(argv[argv.index("--out") + 1])
        for p in (out_path, self.work / "pressure.json"):
            if p.exists():
                p.unlink()
        if tracer is None:
            cmd = [sys.executable, "-m", "limcone.cli", "--threads", "1", *argv]
        else:
            spans_path = self.work / "spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path),
                   "--threads", "1", *argv]
        with open(self.work / "stdout.txt", "wb") as so, open(self.work / "stderr.txt", "wb") as se:
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if tracer is not None:
            tracer.adopt(json.loads(spans_path.read_text()))
            spans_path.unlink()
        written = [p for p in (out_path, self.work / "pressure.json") if p.exists()]
        self.output_bytes[label] = sum(p.stat().st_size for p in written)
        return {"rc": proc.returncode, "stdout": (self.work / "stdout.txt").read_text(),
                "out": out_path}

    def peak_rss_mb(self):
        return _rss_mb(self.max_rss_kb)

    def output_mb_per_op(self):
        return sum(self.output_bytes.values()) / len(self.commands) / 1e6

    # -- gate ---------------------------------------------------------------

    def gate(self, inp, out):
        label, want_rc, _ = inp
        if out["rc"] != want_rc:
            return [f"{label}: exit code {out['rc']}, documented {want_rc}"]
        if want_rc != 0:
            if out["out"].exists():
                return [f"{label}: partial output left behind"]
            return []
        if self.ref is None:
            self.ref = self._reference()
        files, summary = self.ref[label]
        misses = []
        for path, expected in files.items():
            got = (_read_csv(path) if path.endswith(".csv")
                   else json.loads(Path(path).read_text()))
            if got != expected:
                misses.append(f"{label}: {Path(path).name} differs from the library value")
        printed = _NUMBER.findall(out["stdout"].strip().split(" -> ")[0])
        if len(printed) != len(summary) or not all(
                float(f"{s:.{_significant(p)}g}") == float(p) for p, s in zip(printed, summary)):
            misses.append(f"{label}: printed {printed} but the library gives {summary}")
        return misses

    def _reference(self):
        """In-process library values of every number each good command
        writes (files, exact) or prints (summary line, printed digits)."""
        rep, d = self.rep, self.rep.dim
        ref = {}
        hull = counting.limit_cone(rep, 10)
        ref["cone"] = ({self._out("cone.csv"): ([f"dir_{i+1}" for i in range(d)],
                                                [list(p) for p in hull.hull])},
                       [len(hull.hull), hull.width, hull.cone_area()])
        phi = self.phi_pressure
        table = pressure.pressure_table(rep, phi, self.t, N)
        detail = pressure.pressure_root_detail(rep, phi, n_max=N)
        ref["pressure"] = (
            {self._out("pressure.csv"): (["n", "t", "P_n"],
                                         [[n, self.t, p] for n, p in sorted(table.levels.items())]),
             self._out("pressure.json"): {"phi": [float(x) for x in phi.coeffs],
                                          "root": detail.value, "n_max": N,
                                          "extrapolation_flag": bool(detail.fallback
                                                                     or table.oscillating)}},
            [detail.value, self.t, table.extrapolated])
        body = growth.boundary_curve(rep, resolution=16, n_max=N, threads=1)
        records = [{"direction": [float(x) for x in bp.direction.coeffs], "s_star": bp.s_star,
                    "gibbs_dir": [float(x) for x in bp.gibbs_vector], "entropy": bp.entropy}
                   for bp in body.boundary]
        ref["boundary"] = ({self._out("boundary.json"): records},
                           [len(body), growth.growth_form(body).h])
        probe = self.probe / np.linalg.norm(self.probe)
        val = growth.psi_from_duality(body, probe)
        finite = isinstance(val, float)
        ref["psi"] = ({self._out("psi.csv"): ([f"v{i+1}" for i in range(d)] + ["psi", "method"],
                                              [list(probe) + [val if finite else -np.inf,
                                                              "duality"]])},
                      [1, val] if finite else [1])
        phi_b = Functional(self.phi_boundary)
        value = pressure.entropy_of_state(rep, phi_b, N)
        root = pressure.pressure_root(rep, phi_b, n_max=N)
        ref["entropy"] = ({self._out("entropy.json"): {"phi": [float(x) for x in phi_b.coeffs],
                                                       "root": root, "entropy": value, "n": N}},
                          [value])
        est = counting.critical_exponent_direct(rep, phi, N, "conjugacy")
        ref["exponent"] = ({self._out("exponent.csv"): (["threshold", "count", "log_count"],
                                                        [[t, c, np.log(c)] for t, c in
                                                         zip(est.thresholds, est.counts)])},
                           [est.value, est.std_error])
        ref["spectra"] = self._spectra_reference(8)
        return ref

    def _spectra_reference(self, max_len):
        rep = self.rep
        k, d = rep.num_generators, rep.dim
        es = bulk.element_spectra(rep, max_len)
        stack = rep.letter_matrices()
        inv_stack = stack[np.arange(2 * k) ^ 1]
        rows, start = [], 0
        for n in range(1, max_len + 1):
            W = words.word_level_array(k, n)
            if n == 1:
                fwd, bwd = stack, inv_stack
            else:
                parents = np.repeat(np.arange(len(words.word_level_array(k, n - 1))), 2 * k - 1)
                fwd = fwd[parents] @ stack[W[:, -1]]
                bwd = inv_stack[W[:, -1]] @ bwd[parents]
            lam = batched_jordan(fwd, bwd)
            cart = es.cartan[start:start + len(W)]
            start += len(W)
            for j, row in enumerate(W):
                word = words.format_word(words.Word(tuple(int(x) for x in row)), rep.labels)
                rows.append([word, float(n)] + list(cart[j]) + list(lam[j]))
        header = ["word", "len"] + [f"a{i+1}" for i in range(d)] + [f"l{i+1}" for i in range(d)]
        return {self._out("spectra.csv"): (header, rows)}, [len(rows), max_len]


WORKLOADS = {w.name: w for w in (Scan, Count, Dual, Cli)}
