"""Command line contract: exit codes, removal of partial output, and
bitwise reproducible files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from limcone import (
    BracketFailureError,
    Functional,
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
    NotInDualConeError,
    NotOnBoundaryError,
    PerturbationFailedError,
    asymptotic_cone,
    boundary_curve,
    boundary_point,
    cli,
    continuity_scan,
    critical_exponent_direct,
    entropy_of_state,
    growth_indicator_direct,
    limit_cone,
    load_rep,
    orbit_count_ratio,
    pressure_root,
    psi_from_duality,
    save_rep,
    words,
)
from limcone import bulk, pressure
from limcone.spectra import batched_cartan, batched_jordan
from reference import SpectralFailureError, UndefinedGapError


@pytest.fixture(scope="module")
def reps(tmp_path_factory, s2, f3, p3):
    d = tmp_path_factory.mktemp("reps")
    paths = {}
    for name, rep in (("s2", s2), ("f3", f3), ("p3", p3)):
        paths[name] = str(d / f"{name}.rep")
        save_rep(rep, paths[name])
    return paths


def run(tmp_path, reps, rep, *argv, out="out.txt", pre=()):
    path = tmp_path / out
    return cli.main([*pre, *argv[:1], "--rep", reps[rep], "--out", str(path), *argv[1:]]), path


def test_missing_rep_file(tmp_path):
    out = tmp_path / "out.csv"
    rc = cli.main(["cone", "--rep", str(tmp_path / "absent.rep"), "--out", str(out)])
    assert rc == cli.EXIT_FILE and not out.exists()


@pytest.mark.parametrize("text", [
    b'{"dim": 2,',
    b"dim=2 gens=2\na 1 0 0 x\nb 1 0 0 1\n",
    b"dim=2 gens=2\na \xff 0 0 1\nb 1 0 0 1\n",
    b"dim=2 gens=0\n",
    b'{"dim": 2, "labels": [1, 2], "generators": [[1, 0, 0, 1], [1, 0, 0, 1]]}',
], ids=["json-syntax", "text-non-number", "not-utf8", "no-generators", "json-number-labels"])
def test_malformed_rep_file_exit(tmp_path, text):
    rep, out = tmp_path / "bad.rep", tmp_path / "out.csv"
    rep.write_bytes(text)
    rc = cli.main(["cone", "--rep", str(rep), "--out", str(out)])
    assert rc == cli.EXIT_PRECONDITION and not out.exists()


@pytest.mark.parametrize("labels", [["a", "A"], ["a", "b,c"]], ids=["case-clash", "comma"])
def test_spectra_refuses_labels_a_word_cell_cannot_separate(tmp_path, s2, labels):
    # with labels a and A both a^-1 A and AA would print as AA; a comma
    # in a label splits the CSV word cell
    rep, out = tmp_path / "rep.json", tmp_path / "out.csv"
    rep.write_text(json.dumps({"dim": 2, "labels": labels,
                               "generators": s2.generators.reshape(2, -1).tolist()}))
    rc = cli.main(["spectra", "--rep", str(rep), "--out", str(out)])
    assert rc == cli.EXIT_PRECONDITION and not out.exists()


@pytest.mark.parametrize("name,labels", [("p3", None), ("s2", ["g1", "h"])],
                         ids=["p3", "s2-multi-letter-labels"])
def test_spectra_rows_equal_word_by_word_formatting(tmp_path, reps, s2, name, labels):
    # the dump prints each level's words from the parent level's text and each
    # row with one format string: the same bytes as format_word per word and
    # one 17-digit format per number
    path = reps[name]
    if labels is not None:
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"dim": 2, "labels": labels,
                                    "generators": s2.generators.reshape(2, -1).tolist()}))
    rep = load_rep(str(path))
    out = tmp_path / "spectra.csv"
    assert cli.main(["spectra", "--rep", str(path), "--out", str(out), "--max-len", "6"]) == 0
    d = rep.dim
    lines = [",".join(["word", "len"] + [f"a{i+1}" for i in range(d)]
                      + [f"l{i+1}" for i in range(d)])]
    for n, lo, fwd, bwd in bulk.word_products(rep, 6):
        W = words.word_level_array(2, n)[lo:lo + len(fwd)]
        a, l = batched_cartan(fwd, bwd), batched_jordan(fwd, bwd)
        for j, w in enumerate(W.tolist()):
            cells = [words.format_word(w, rep.labels), str(n)]
            lines.append(",".join(cells + [format(float(x), ".17g") for x in [*a[j], *l[j]]]))
    got = out.read_text()
    assert got.endswith("\n") and len(got.splitlines()) == len(lines)
    # the first differing line, not pytest's quadratic diff of two long texts
    assert next((pair for pair in zip(got.splitlines(), lines) if pair[0] != pair[1]), None) is None


@pytest.mark.parametrize("rep,argv", [
    ("p3", ["psi", "--probe", "1", "-1"]),
    ("p3", ["psi", "--probe", "0", "0", "0"]),
    ("p3", ["psi", "--probe", "1", "nan", "-1"]),
    ("p3", ["perturb-scan", "--epsilons", "0.01", "--probe", "1", "-1"]),
    ("s2", ["spectra", "--max-len", "0"]),
    ("s2", ["spectra", "--max-len", "-2"]),
    ("s2", ["entropy", "--phi", "1", "-1"]),
    ("p3", ["exponent", "--phi", "1", "nan", "-1"]),
    ("p3", ["pressure", "--phi", "1", "nan", "-1"]),
    ("p3", ["exponent", "--phi", "1", "abc", "-1"]),
    ("p3", ["pressure", "--phi", "1", "0", "-1", "--t", "nan"]),
    ("p3", ["perturb-scan", "--epsilons", "-0.01", "--probe", "1", "0", "-1"]),
    ("p3", ["perturb-scan", "--epsilons", "nan", "--probe", "1", "0", "-1"]),
    ("p3", ["perturb-scan", "--epsilons", "0.01", "1e308", "--probe", "1", "0", "-1"]),
    ("p3", ["perturb-scan", "--epsilons", "-1e-3", "--probe", "1", "0", "-1"]),
    ("p3", ["pressure", "--phi", "1", "0", "-1", "--t", "1e308"]),
    ("p3", ["counting-check", "--index", "0"]),
    ("p3", ["counting-check", "--index", "3"]),
    ("s2", ["counting-check", "--max-len", "5"]),
    ("s2", ["cone", "--kind", "asymptotic"]),
    ("p3", ["pressure", "--phi", "1", "0", "-1", "--t", "-inf"]),
    ("p3", ["pressure", "--phi", "1", "0", "-1", "--t", "-nan"]),
    ("p3", ["psi", "--probe", "1", "-inf", "0"]),
    ("p3", ["psi", "--probe", "1", "-Infinity", "0"]),
    ("p3", ["psi", "--probe", "1", "abc", "-1"]),
    ("p3", ["psi", "--method", "duality", "--probe", "1", "1", "1"]),
    ("p3", ["perturb-scan", "--epsilons", "0.01", "--probe", "1", "1", "1"]),
    ("p3", ["psi", "--method", "direct", "--probe", "1", "0", "-1", "--max-len", "5"]),
    ("p3", ["psi", "--method", "duality", "--probe", "1e200", "0", "-1e200"]),
    ("p3", ["exponent", "--phi", "1e-320", "0", "-1e-320", "--max-len", "8"]),
    ("p3", ["exponent", "--phi", "1e-320", "0", "-1e-320", "--max-len", "8", "--mode", "conjugacy"]),
], ids=["psi-short-probe", "psi-zero-probe", "psi-nan-probe", "scan-short-probe",
        "spectra-len-0", "spectra-len-neg", "entropy-off-boundary", "exponent-nan-phi",
        "pressure-nan-phi", "exponent-text-phi", "pressure-nan-t", "scan-negative-eps",
        "scan-nan-eps", "scan-overflowing-eps", "scan-negative-eps-e-notation",
        "pressure-overflowing-t", "counting-check-index-0", "counting-check-index-3",
        "counting-check-len-5", "cone-asymptotic-no-floor", "pressure-neg-inf-t",
        "pressure-neg-nan-t", "psi-neg-inf-probe", "psi-neg-infinity-probe",
        "psi-text-probe", "psi-off-plane-probe", "scan-off-plane-probe", "psi-direct-len-5",
        "psi-overflowing-probe", "exponent-underflowing-phi",
        "exponent-underflowing-phi-conjugacy"])
def test_precondition_exit(tmp_path, reps, rep, argv):
    rc, out = run(tmp_path, reps, rep, *argv)
    assert rc == cli.EXIT_PRECONDITION and not out.exists()


def test_negative_e_notation_phi(tmp_path, reps):
    rc, out = run(tmp_path, reps, "p3", "exponent", "--phi", "1", "0", "-1e-3", "--max-len", "8")
    assert rc == 0
    est = critical_exponent_direct(load_rep(reps["p3"]), Functional([1.0, 0.0, -1e-3]), 8, "element")
    thresholds = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert thresholds == est.thresholds.tolist()


def test_negative_e_notation_probe(tmp_path, reps):
    rc, out = run(tmp_path, reps, "p3", "psi", "--method", "direct",
                  "--probe", "0.70001", "-1e-05", "-0.7", "--max-len", "8")
    assert rc == 0
    p = np.array([0.70001, -1e-05, -0.7])
    p /= np.linalg.norm(p)
    sample = growth_indicator_direct(load_rep(reps["p3"]), p, 0.15, 8)
    row = [float(x) for x in out.read_text().splitlines()[1].split(",")]
    assert row == p.tolist() + [sample.value]


def test_negative_e_notation_t(tmp_path, reps):
    rc, out = run(tmp_path, reps, "p3", "pressure", "--phi", "1", "0", "-1",
                  "--t", "-1e5", "--n-max", "8")
    assert rc == 0
    assert {line.split(",")[1] for line in out.read_text().splitlines()[1:]} == {"-100000"}


def test_counting_check_csv_matches_library(tmp_path, reps):
    rc, out = run(tmp_path, reps, "s2", "counting-check", "--max-len", "8")
    assert rc == 0
    table = orbit_count_ratio(load_rep(reps["s2"]), 1, 8)
    rows = [[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert rows == [[t, r] for t, r in zip(table.thresholds.tolist(), table.ratios.tolist())]


def read_rows(out):
    return [[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[1:]]


@pytest.mark.parametrize("argv,cone", [
    (["--kind", "limit"], lambda rep: limit_cone(rep, 10)),
    (["--kind", "asymptotic", "--norm-floor", "1"], lambda rep: asymptotic_cone(rep, 10, 1.0)),
], ids=["limit", "asymptotic"])
def test_cone_csv_matches_library(tmp_path, reps, argv, cone):
    rc, out = run(tmp_path, reps, "p3", "cone", *argv)
    assert rc == 0
    assert read_rows(out) == cone(load_rep(reps["p3"])).hull.tolist()


def test_psi_both_csv_matches_library(tmp_path, reps):
    rc, out = run(tmp_path, reps, "p3", "psi", "--method", "both",
                  "--probe", "1", "0", "-1", "--probe", "0", "1", "-1")
    assert rc == 0
    rep = load_rep(reps["p3"])
    v = np.array([1.0, 0.0, -1.0])
    v /= np.linalg.norm(v)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[-1] for r in rows] == ["duality", "direct-count"] * 2
    assert [[float(x) for x in r[:-1]] for r in rows[:2]] == [
        v.tolist() + [psi_from_duality(boundary_curve(rep, 16), v)],
        v.tolist() + [growth_indicator_direct(rep, v, 0.15, 12).value],
    ]
    # a probe on the chamber wall, outside the limit cone
    assert [r[-2] for r in rows[2:]] == ["-inf", "-inf"]


def test_psi_against_the_s2_cone_is_minus_infinity(tmp_path, reps):
    # the limit cone of s2 is the ray of (1, -1): both routes read -inf
    rc, out = run(tmp_path, reps, "s2", "psi", "--method", "both", "--probe", "-1", "1")
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[-2:] for r in rows] == [["-inf", "duality"], ["-inf", "direct-count"]]


def test_entropy_json_matches_library(tmp_path, reps):
    rep = load_rep(reps["p3"])
    phi = boundary_point(rep, np.array([1.0, 0.0, -1.0])).functional
    rc, out = run(tmp_path, reps, "p3", "entropy", "--phi", *map(repr, phi.coeffs.tolist()))
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["root"] == pressure_root(rep, phi, n_max=12)
    assert record["entropy"] == entropy_of_state(rep, phi, 12)


def test_entropy_finds_its_root_once(tmp_path, reps, monkeypatch):
    rep = load_rep(reps["p3"])
    phi = boundary_point(rep, np.array([1.0, 0.0, -1.0])).functional
    calls = []
    detail = pressure.pressure_root_detail
    monkeypatch.setattr(pressure, "pressure_root_detail",
                        lambda *a, **kw: calls.append(a) or detail(*a, **kw))
    rc, _ = run(tmp_path, reps, "p3", "entropy", "--phi", *map(repr, phi.coeffs.tolist()))
    assert rc == 0 and len(calls) == 1


def test_perturb_scan_csv_matches_library(tmp_path, reps):
    rc, out = run(tmp_path, reps, "p3", "perturb-scan", "--epsilons", "0", "0.01",
                  "--probe", "1", "0", "-1")
    assert rc == 0
    v = np.array([1.0, 0.0, -1.0])
    v /= np.linalg.norm(v)
    rows = continuity_scan(load_rep(reps["p3"]), [0.0, 0.01], 0, [v])
    np.testing.assert_array_equal(
        read_rows(out), [[r.epsilon, r.hausdorff, r.dpsi_max, r.dh] for r in rows])


def test_perturb_scan_one_sided_psi_is_quiet(tmp_path, reps):
    # at eps = 0.01 psi by duality is minus infinity at this probe (gap
    # coordinate 0.0099, past that step's arc of +-0.0052), so that step has
    # no probe finite on both sides: its dpsi_max is NaN, and no numpy
    # warning reaches stderr
    out = tmp_path / "scan.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "limcone.cli", "--seed", "0", "perturb-scan", "--rep", reps["p3"],
         "--out", str(out), "--epsilons", "0", "0.01", "0.03", "--probe", "1", "0.02", "-1.02"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    v = np.array([1.0, 0.02, -1.02])
    v /= np.linalg.norm(v)
    rows = continuity_scan(load_rep(reps["p3"]), [0.0, 0.01, 0.03], 0, [v])
    np.testing.assert_array_equal(
        read_rows(out), [[r.epsilon, r.hausdorff, r.dpsi_max, r.dh] for r in rows])
    np.testing.assert_allclose([r.dpsi_max for r in rows], [0.0, np.nan, 0.0291454278104],
                               rtol=1e-9)


def test_degenerate_cone_is_numerical(tmp_path, reps):
    rc, out = run(tmp_path, reps, "f3", "boundary")
    assert rc == cli.EXIT_NUMERICAL and not out.exists()


@pytest.mark.parametrize("error", [BracketFailureError, SpectralFailureError,
                                   PerturbationFailedError])
def test_numerical_failures_exit_4(tmp_path, reps, monkeypatch, error):
    def fail(rep, N):
        raise error("injected")

    monkeypatch.setattr("limcone.counting.limit_cone", fail)
    rc, out = run(tmp_path, reps, "p3", "cone")
    assert rc == cli.EXIT_NUMERICAL and not out.exists()


@pytest.mark.parametrize("error", [InvalidParameterError, InvalidInputError, NotInDualConeError,
                                   NotOnBoundaryError, InsufficientDataError, UndefinedGapError])
def test_precondition_failures_exit_3(tmp_path, reps, monkeypatch, error):
    def fail(rep, N):
        raise error("injected")

    monkeypatch.setattr("limcone.counting.limit_cone", fail)
    rc, out = run(tmp_path, reps, "p3", "cone")
    assert rc == cli.EXIT_PRECONDITION and not out.exists()


def test_partial_output_removed(tmp_path, reps):
    # the root finds the functional negative on a class after the level
    # pressures are computed; no file is written
    json_out = tmp_path / "root.json"
    rc, out = run(tmp_path, reps, "s2", "pressure", "--phi", "-1", "1",
                  "--json-out", str(json_out))
    assert rc == cli.EXIT_PRECONDITION
    assert not out.exists() and not json_out.exists()


def test_failed_command_keeps_existing_output(tmp_path, reps):
    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    rc, _ = run(tmp_path, reps, "s2", "pressure", "--phi", "-1", "1")
    assert rc == cli.EXIT_PRECONDITION and out.read_text() == "kept\n"


def test_failed_write_removes_written_files(tmp_path, reps):
    # the CSV is written before the JSON file fails to open
    rc, out = run(tmp_path, reps, "s2", "pressure", "--phi", "1", "-1", "--n-max", "6",
                  "--json-out", str(tmp_path / "absent" / "root.json"))
    assert rc == cli.EXIT_FILE and not out.exists()


def test_pressure_files_reproducible(tmp_path, reps):
    files = []
    for i in range(2):
        json_out = tmp_path / f"root{i}.json"
        rc, out = run(tmp_path, reps, "p3", "pressure", "--phi", "1", "0", "-1",
                      "--json-out", str(json_out), out=f"p{i}.csv")
        assert rc == 0
        files.append((out.read_bytes(), json_out.read_bytes()))
    assert files[0] == files[1]


def test_boundary_reproducible_across_runs_and_threads(tmp_path, reps):
    outs = []
    for i, threads in enumerate(("1", "1")):
        rc, out = run(tmp_path, reps, "p3", "boundary", out=f"b{i}.json",
                      pre=("--threads", threads))
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # tracing runs on one thread, so any other count is refused, not ignored
    rc, out = run(tmp_path, reps, "p3", "boundary", out="b2.json", pre=("--threads", "2"))
    assert rc == cli.EXIT_PRECONDITION and not out.exists()


def test_files_do_not_depend_on_the_blas_thread_count(tmp_path, reps):
    # the prefix-tree engine's forward GEMM is large enough for BLAS to thread
    unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    unset["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    outs = []
    for i, env in enumerate((dict(unset, OPENBLAS_NUM_THREADS="1"), unset)):
        files = []
        for argv in (["spectra", "--max-len", "8"],
                     ["cone", "--kind", "asymptotic", "--norm-floor", "1"]):
            out = tmp_path / f"{argv[0]}{i}.csv"
            subprocess.run([sys.executable, "-m", "limcone.cli", argv[0], "--rep", reps["p3"],
                            "--out", str(out), *argv[1:]], env=env, check=True, capture_output=True)
            files.append(out.read_bytes())
        outs.append(files)
    assert outs[0] == outs[1]


def test_boundary_records_pair_off_by_the_opposition_involution(tmp_path, reps):
    # record n - 1 - i sits at the mirrored angle: its direction and Gibbs
    # vector are the images under iota(v) = -(v_3, v_2, v_1) of record i's
    rc, out = run(tmp_path, reps, "p3", "boundary", out="b.json")
    assert rc == 0
    records = json.loads(out.read_text())
    assert len(records) == 16
    for rec, partner in zip(records, reversed(records)):
        assert rec["s_star"] == partner["s_star"] and rec["entropy"] == partner["entropy"]
        assert rec["gibbs_dir"] == [-x for x in reversed(partner["gibbs_dir"])]
        np.testing.assert_allclose(rec["direction"], [-x for x in reversed(partner["direction"])],
                                   rtol=0, atol=1e-15)


def test_boundary_prints_the_root_at_the_iota_fixed_direction(tmp_path, reps, capsys):
    # h is pressure_root(p3, (1, 0, -1)/sqrt 2) = 0.55125496449906
    rc, out = run(tmp_path, reps, "p3", "boundary")
    assert rc == 0
    assert capsys.readouterr().out == f"boundary: 16 points, h = 0.5512549645 -> {out}\n"


def test_direct_psi_needs_no_dual_body(tmp_path, reps):
    # f3's sampled cone is one ray, so its dual boundary cannot be traced;
    # the direct count does not use it
    rc, out = run(tmp_path, reps, "f3", "psi", "--method", "direct", "--probe", "1", "0", "-1")
    assert rc == 0
    header, row = out.read_text().splitlines()
    assert header == "dir_1,dir_2,dir_3,psi"
    assert float(row.split(",")[-1]) == pytest.approx(0.53858, abs=1e-5)


@pytest.mark.parametrize("argv", [
    ["spectra", "--max-len", "20"],
    ["pressure", "--phi", "1", "-1", "--n-max", "20"],
], ids=["spectra", "pressure"])
def test_word_levels_over_budget_exit(tmp_path, reps, monkeypatch, argv):
    # the top level is refused before any lower level is built
    build = words._word_level

    def top_only(k, n):
        if n < 20:
            pytest.fail(f"enumerated words of length {n}")
        return build.__wrapped__(k, n)

    monkeypatch.setattr(words, "_word_level", top_only)
    rc, out = run(tmp_path, reps, "s2", *argv)
    assert rc == cli.EXIT_PRECONDITION and not out.exists()


def test_cold_start_skips_unused_numpy_subpackages():
    # no command needs numpy.polynomial or numpy.ma, so a cold start imports neither
    code = ("import sys, limcone.cli; "
            "print(*(m for m in ('numpy.polynomial', 'numpy.ma') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == []


def test_cold_start_skips_the_thread_pool():
    # nothing in the package imports concurrent.futures, which would also
    # load logging; a cold start imports neither
    code = ("import sys, limcone.cli; "
            "print(*(m for m in ('concurrent.futures', 'logging') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == []
