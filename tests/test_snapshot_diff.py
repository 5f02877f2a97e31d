"""tools/snapshot_diff.py on synthetic snapshot directories."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).parents[1] / "tools" / "snapshot_diff.py"
_spec = importlib.util.spec_from_file_location("snapshot_diff", _PATH)
snapshot_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot_diff)


def write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


BASE = {
    "s2/pressure.csv": "n,P_n\n2,0.5\n3,0.25e-3\n",
    "s2/pressure.stdout": "root 1.25\n",
    "s2/pressure.stderr": "",
    "s2/pressure.rc": "0\n",
}


def run(tmp_path, capsys, change):
    a = write(tmp_path / "a", BASE)
    b = write(tmp_path / "b", {**BASE, **change})
    rc = snapshot_diff.main([str(a), str(b)])
    lines = {line.split()[1]: line.split()[0] for line in capsys.readouterr().out.splitlines()[:-1]}
    return rc, lines


def test_identical_trees(tmp_path, capsys):
    rc, lines = run(tmp_path, capsys, {})
    assert rc == 0 and set(lines.values()) == {"identical"} and len(lines) == 4


def test_numbers_only_in_an_output_file(tmp_path, capsys):
    rc, lines = run(tmp_path, capsys, {"s2/pressure.csv": "n,P_n\n2,0.5000000000000001\n3,0.25e-3\n"})
    assert rc == 0 and lines["s2/pressure.csv"] == "numbers"


def test_largest_relative_difference():
    kind, detail = snapshot_diff.compare(b"x 1.0 y 200 z -3e-2\n\n4\n", b"x 1.0 y 201 z -3e-2\n\n4.4\n")
    assert kind == "numbers"
    assert detail == "max rel diff 0.091 at line 3 (4 vs 4.4), 2 of 4 numbers differ"


def test_structure_differs(tmp_path, capsys):
    rc, lines = run(tmp_path, capsys, {"s2/pressure.csv": "n,P_n\n2,0.5\n3,nan\n"})
    assert rc == 1 and lines["s2/pressure.csv"] == "STRUCTURE"


def test_stdout_numbers_fail(tmp_path, capsys):
    # the printed output must be byte-identical, numbers included
    rc, lines = run(tmp_path, capsys, {"s2/pressure.stdout": "root 1.2500000000000002\n"})
    assert rc == 1 and lines["s2/pressure.stdout"] == "numbers"


def test_exit_code_differs(tmp_path, capsys):
    rc, lines = run(tmp_path, capsys, {"s2/pressure.rc": "3\n"})
    assert rc == 1 and lines["s2/pressure.rc"] == "numbers"


def test_file_on_one_side_only(tmp_path, capsys):
    rc, lines = run(tmp_path, capsys, {"s2/extra.json": "{}\n"})
    assert rc == 1 and lines["s2/extra.json"] == "STRUCTURE"


def test_bad_arguments(tmp_path):
    assert snapshot_diff.main([str(tmp_path)]) == 2
    assert snapshot_diff.main([str(tmp_path), str(tmp_path / "missing")]) == 2
