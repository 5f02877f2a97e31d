"""Snapshot every CLI output of a source tree, for byte-identity checks.

    python3 tools/cli_snapshot.py SOURCE_TREE OUT_DIR

SOURCE_TREE is the root of a limcone checkout (it holds src/ and
perfbench/).  The script writes the representations s2, f3 and p3 of
the test suite into OUT_DIR with that tree's library, then runs ten
subcommand variants on each with that tree's `python -m limcone.cli`:
`spectra --max-len 8`, `cone` (limit, and asymptotic with
`--norm-floor 1`), `exponent` (element and conjugacy), `pressure --t 0.7
--json-out`, `boundary`, `psi`, `counting-check` and `perturb-scan
--epsilons 0 0.01`, with phi = (1, -1) and probe (1, -1) at d = 2 and
phi = (1, 0.3, -1.3) and probe (1, 0, -1) at d = 3.  It also runs the
commands of the benchmark's `cli` workload at seed 1, as
perfbench/workloads.py of that tree builds them in `Cli(1, "cli")`.

Every command runs in OUT_DIR with BLAS on one thread, and every path it
is given is relative, so nothing in the output names the tree.  Each
output file stays where the command wrote it, beside <name>.stdout,
<name>.stderr and <name>.rc (the exit code).  Two trees, such as a
parent commit and a change, then compare with

    diff -r OUT_A OUT_B

for byte identity, or with tools/snapshot_diff.py OUT_A OUT_B, which
says of each file whether it is identical, differs in numbers only (and
by how much) or differs in structure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# writes the three representations, then prints the cli workload's commands
PREPARE = """
import json
import numpy as np
from limcone.reps import make_schottky, perturb, save_rep, sym_power_embed
from workloads import Cli

s2 = make_schottky([2.0, 2.0], [0.0, np.pi / 2])
f3 = sym_power_embed(s2, 3)
for name, rep in (("s2", s2), ("f3", f3), ("p3", perturb(f3, 0.05, 1))):
    save_rep(rep, name + ".txt")
print(json.dumps([[label, argv] for label, _, argv in Cli(1, "cli").commands]))
"""


def variants(name):
    """(label, argv) of the ten subcommand variants on representation name."""
    rep = ["--rep", f"{name}.txt"]
    phi = ["1", "-1"] if name == "s2" else ["1", "0.3", "-1.3"]
    probe = ["1", "-1"] if name == "s2" else ["1", "0", "-1"]

    def out(label, ext):
        return ["--out", f"{name}/{label}.{ext}"]

    return [
        ("spectra", ["spectra", *rep, *out("spectra", "csv"), "--max-len", "8"]),
        ("cone-limit", ["cone", *rep, *out("cone-limit", "csv")]),
        ("cone-asymptotic", ["cone", *rep, *out("cone-asymptotic", "csv"),
                             "--kind", "asymptotic", "--norm-floor", "1"]),
        ("exponent-element", ["exponent", *rep, *out("exponent-element", "csv"),
                              "--phi", *phi, "--mode", "element"]),
        ("exponent-conjugacy", ["exponent", *rep, *out("exponent-conjugacy", "csv"),
                                "--phi", *phi, "--mode", "conjugacy"]),
        ("pressure", ["pressure", *rep, *out("pressure", "csv"), "--phi", *phi, "--t", "0.7",
                      "--json-out", f"{name}/pressure.json"]),
        ("boundary", ["boundary", *rep, *out("boundary", "json")]),
        ("psi", ["psi", *rep, *out("psi", "csv"), "--probe", *probe]),
        ("counting-check", ["counting-check", *rep, *out("counting-check", "csv")]),
        ("perturb-scan", ["perturb-scan", *rep, *out("perturb-scan", "csv"),
                          "--epsilons", "0", "0.01", "--probe", *probe]),
    ]


def run(out_dir, env, stem, argv):
    """Run one CLI command in out_dir; keep its stdout, stderr and exit code."""
    proc = subprocess.run([sys.executable, "-m", "limcone.cli", "--threads", "1", *argv],
                          cwd=out_dir, env=env, capture_output=True)
    (out_dir / f"{stem}.stdout").write_bytes(proc.stdout)
    (out_dir / f"{stem}.stderr").write_bytes(proc.stderr)
    (out_dir / f"{stem}.rc").write_text(f"{proc.returncode}\n")
    return proc.returncode


def main(args):
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tree, out_dir = Path(args[0]).resolve(), Path(args[1])
    if not (tree / "src" / "limcone").is_dir():
        print(f"no src/limcone under {tree}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **ONE_THREAD,
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]))
    prepared = subprocess.run([sys.executable, "-c", PREPARE], cwd=out_dir, env=env,
                              stdout=subprocess.PIPE, text=True, check=True)
    runs = [(f"{name}/{label}", cmd) for name in ("s2", "f3", "p3")
            for label, cmd in variants(name)]
    runs += [(f"cli/{label}", cmd) for label, cmd in json.loads(prepared.stdout)]
    for name in ("s2", "f3", "p3"):
        (out_dir / name).mkdir(exist_ok=True)
    for stem, cmd in runs:
        print(f"{stem}: exit {run(out_dir, env, stem, cmd)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
