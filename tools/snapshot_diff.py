"""Compare two CLI snapshot directories, number by number.

    python3 tools/snapshot_diff.py OUT_A OUT_B

OUT_A and OUT_B are directories written by tools/cli_snapshot.py, for
instance of a parent commit and of a change.  For every file in either
directory the script prints one line:

    identical   the bytes are equal
    numbers     the text is equal once every number is taken out, and
                the numbers differ; with the largest relative difference
                |a - b| / max(|a|, |b|), where it is (line and both
                values) and how many numbers differ
    STRUCTURE   the text around the numbers differs, or the file exists
                on one side only

It exits 1 when any .stdout, .stderr or .rc file differs at all, or when
any file differs in structure, and 0 otherwise; 2 on bad arguments.
`diff -r` can only say that two files differ; this says by how much.
"""

import re
import sys
from pathlib import Path

# a decimal number with optional sign, fraction and exponent
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
EXACT = (".stdout", ".stderr", ".rc")


def split_numbers(data):
    """(the text with every number replaced by a marker, the numbers)."""
    return NUMBER.sub(b"#", data), [m.group() for m in NUMBER.finditer(data)]


def compare(a, b):
    """(kind, detail) for two file contents; kind is "identical",
    "numbers" or "STRUCTURE"."""
    if a == b:
        return "identical", ""
    (skel_a, nums_a), (skel_b, nums_b) = split_numbers(a), split_numbers(b)
    if skel_a != skel_b:
        return "STRUCTURE", "text around the numbers differs"
    # the line of each number: newlines in the text before it
    lines = [a.count(b"\n", 0, m.start()) + 1 for m in NUMBER.finditer(a)]
    worst, where, moved = 0.0, None, 0
    for line, x, y in zip(lines, nums_a, nums_b):
        if x == y:
            continue
        moved += 1
        fx, fy = float(x), float(y)
        rel = abs(fx - fy) / max(abs(fx), abs(fy)) if fx != fy else 0.0
        if where is None or rel > worst:
            worst, where = rel, (line, x.decode(), y.decode())
    line, x, y = where
    return "numbers", (f"max rel diff {worst:.2g} at line {line} ({x} vs {y}), "
                       f"{moved} of {len(nums_a)} numbers differ")


def main(args):
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    roots = [Path(a) for a in args]
    if not all(r.is_dir() for r in roots):
        print("both arguments must be directories", file=sys.stderr)
        return 2
    names = sorted({p.relative_to(r).as_posix() for r in roots for p in r.rglob("*") if p.is_file()})
    failed = False
    for name in names:
        a, b = (r / name for r in roots)
        if not (a.is_file() and b.is_file()):
            kind, detail = "STRUCTURE", f"only in {args[0] if a.is_file() else args[1]}"
        else:
            kind, detail = compare(a.read_bytes(), b.read_bytes())
        failed |= kind == "STRUCTURE" or (kind != "identical" and name.endswith(EXACT))
        print(f"{kind:10s} {name}" + (f"  {detail}" if detail else ""))
    print("stdout, stderr and exit codes identical; no structural difference"
          if not failed else "DIFFERENT: see the STRUCTURE lines and the .stdout/.stderr/.rc files")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
