"""tools/op_moves.py on two small op_reprs outputs."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "op_moves", Path(__file__).resolve().parent.parent / "tools" / "op_moves.py")
op_moves = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_moves)

_ROW = ("[ExperimentRow(omega=50.0, approx=({a}+100.0j), reference=None, "
        "params={{'psi': 0.0, 'm': 5, 'w0_re': {w}, 'self_err': {e}}})]")


def _write(path, lines):
    path.write_text("".join(f"{label}\t{value}\n" for label, value in lines))
    return str(path)


def test_op_moves_counts_moved_ops_and_the_largest_move_per_field(tmp_path, capsys):
    base = _write(tmp_path / "base.txt", [
        ("sphere k=50.0 psi=0.0", _ROW.format(a="-2.0", w="0.5", e="1e-16")),
        ("sphere k=50.0 psi=0.3", _ROW.format(a="-4.0", w="0.25", e="2e-12")),
        ("ellipse w=10.0", "(0.5-0.25j)"),
        ("disk w=10.0", "(1+0j)"),
    ])
    head = _write(tmp_path / "head.txt", [
        ("sphere k=50.0 psi=0.0", _ROW.format(a="-2.0", w="0.5", e="3e-16")),
        ("sphere k=50.0 psi=0.3", _ROW.format(a="-4.0000000000000036", w="0.25", e="2e-12")),
        ("ellipse w=10.0", "(0.5-0.25j)"),
        ("disk w=10.0", "(1+0j)"),
    ])
    assert op_moves.main([base, head]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sphere: 2 ops, 2 moved"
    moves = {line.split()[0]: float(line.split()[1]) for line in out[1:out.index("planar: 2 ops, 0 moved")]}
    assert moves["approx"] == float(f"{abs(-4.0000000000000036 + 4.0) / abs(-4.0 + 100.0j):.2g}")
    assert moves["params.self_err"] == 2.0
    assert moves["omega"] == moves["params.psi"] == moves["params.m"] == moves["params.w0_re"] == 0.0
    assert [line.split() for line in out[out.index("planar: 2 ops, 0 moved") + 1:]] == [["value", "0"]]


def test_op_moves_lists_a_label_in_one_file_only(tmp_path, capsys):
    base = _write(tmp_path / "base.txt", [("duct w=10.0", "(1+0j)"), ("duct w=20.0", "(2+0j)")])
    head = _write(tmp_path / "head.txt", [("duct w=10.0", "(1+0j)"), ("duct w=30.0", "(2+0j)")])
    assert op_moves.main([base, head]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["duct: 1 ops, 0 moved", "  value                    0",
                   "only in BASE: duct w=20.0", "only in HEAD: duct w=30.0"]
