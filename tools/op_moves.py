"""Count the benchmark ops whose values moved between two op_reprs outputs.

Usage: ``python3 tools/op_moves.py BASE HEAD``, where BASE and HEAD are the
outputs of ``tools/op_reprs.py`` in two checkouts.  For each workload it
prints how many ops the two files share, how many of them moved (their
``repr`` differs), and the largest relative move |head - base| / |base| of
each numeric field over those ops.  A complex field moves by the modulus of
its difference; a field that is zero in BASE and not in HEAD moves by inf.

A field is named by its keyword and dict-key path in the repr, such as
``approx`` or ``params.self_err`` of an ``ExperimentRow``, and ``value`` for
a bare number; the rows of one op share their names.  An op's workload is
the first word of its label, except that the ellipse, disk and example1 ops
make up the planar workload.  Exit code 0, or 1 when a label is in one file
only (it is listed).  Standard library only.
"""

from __future__ import annotations

import ast
import math
import sys

_PLANAR = ("ellipse", "disk", "example1")


def _read(path):
    with open(path) as fh:
        return dict(line.rstrip("\n").split("\t", 1) for line in fh if "\t" in line)


def _fields(node, path):
    # (name, number) of every numeric leaf of a parsed repr
    if isinstance(node, ast.Call):
        for arg in node.args:
            yield from _fields(arg, path)
        for kw in node.keywords:
            yield from _fields(kw.value, f"{path}.{kw.arg}" if path else kw.arg)
    elif isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            name = str(ast.literal_eval(key))
            yield from _fields(value, f"{path}.{name}" if path else name)
    elif isinstance(node, (ast.List, ast.Tuple)):
        for item in node.elts:
            yield from _fields(item, path)
    else:
        try:
            value = ast.literal_eval(node)
        except ValueError:
            return
        if isinstance(value, (int, float, complex)) and not isinstance(value, bool):
            yield path or "value", value


def _numbers(text):
    try:
        return list(_fields(ast.parse(text, mode="eval").body, ""))
    except SyntaxError:
        return []


def _move(base, head):
    if base == head:
        return 0.0
    return abs(head - base) / abs(base) if base else math.inf


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: op_moves.py BASE HEAD", file=sys.stderr)
        return 2
    base, head = (_read(path) for path in args)
    workloads = {}  # in BASE order
    for label in base:
        if label in head:
            name = label.split(" ", 1)[0]
            workloads.setdefault("planar" if name in _PLANAR else name, []).append(label)
    for name, labels in workloads.items():
        moved = [label for label in labels if base[label] != head[label]]
        print(f"{name}: {len(labels)} ops, {len(moved)} moved")
        largest = {}
        for label in labels:
            old, new = _numbers(base[label]), _numbers(head[label])
            if [field for field, _ in old] != [field for field, _ in new]:
                largest["(fields differ)"] = math.inf
                continue
            for (field, b), (_, h) in zip(old, new):
                largest[field] = max(largest.get(field, 0.0), _move(b, h))
        for field, move in largest.items():
            print(f"  {field:<24} {move:.2g}")
    missing = sorted(base.keys() ^ head.keys(), key=lambda label: (label not in base, label))
    for label in missing:
        print(f"only in {'BASE' if label in base else 'HEAD'}: {label}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
