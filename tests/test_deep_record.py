"""Byte-level regression of the command outputs on the deep rungs.

tests/deep_outputs.json records, for each deep problem, the problem text,
the command line (without the file) and the SHA-256 of the `--json` payload
with its `timing` field removed, dumped with sort_keys=True. dim_B0, dim_C0,
index and signature are kept beside the digest, so that a mismatch can be
diagnosed. The rungs are mixed dk(k, k-2), the D-type family under the
shear [[-1, -1], [-2, -3]], with and without a seeded functional and with
--check-good --deform; (Re z^10, Im z^10) under el in both modes; the tall
staircase y^2 - x^801 in both fields; and the cube map ((x+y)^3, (y+z)^5,
z^3) in both modes. The entries under "tier1" run in the test suite; those
under "ci_only" (dk(28,26), seconds each) run with

    PYTHONPATH=src python tests/test_deep_record.py --check

A change that alters output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_deep_record.py

and says so in its change notes.
"""

import contextlib
import io
import json
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

import pytest

from gsvindex import Polynomial
from gsvindex.cli import main

from problems import dk_problem, substitute_problem, zk_map

RECORD = Path(__file__).resolve().parent / "deep_outputs.json"
SEED = "576420752"
SHEAR = [[-1, -1], [-2, -3]]
XY = ("x", "y")


def _text(field, f=None, X=None, C=None, g=None, names=XY):
    show = lambda ps: "; ".join(p.render(names) for p in ps)
    head = f"ring: {', '.join(names)}\nfield: {field}\n"
    if g is not None:
        return head + f"g: {show(g)}\n"
    return head + f"f: {show(f)}\nX: {show(X)}\nC: [{show(C)}]\n"


def _mixed_dk(k, m):
    P = substitute_problem(dk_problem(k, m, "real"), SHEAR)
    return _text("real", P.f, P.X, P.C.entries)


def _runs():
    """{"tier1": ..., "ci_only": ...}, each {key: (problem text, argv)}."""
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    xyz = [Polynomial.variable(3, i) for i in range(3)]
    cube = _text("real", g=[(xyz[0] + xyz[1]) ** 3, (xyz[1] + xyz[2]) ** 5,
                            xyz[2] ** 3], names=("x", "y", "z"))
    z10 = _text("real", g=zk_map(10))
    runs = {"tier1": {}, "ci_only": {}}

    def dk_runs(group, k, m, criterion):
        text = _mixed_dk(k, m)
        group[f"compute mixed dk({k},{m})"] = (text, ["compute", "--json"])
        group[f"compute mixed dk({k},{m}) --seed {SEED}"] = (
            text, ["compute", "--json", "--seed", SEED])
        if criterion:
            group[f"compute mixed dk({k},{m}) --check-good --deform"] = (
                text, ["compute", "--json", "--check-good", "--deform"])

    for k, m, criterion in ((12, 10, False), (14, 12, True), (20, 18, True)):
        dk_runs(runs["tier1"], k, m, criterion)
    dk_runs(runs["ci_only"], 28, 26, True)
    for mode in ("real", "complex"):
        runs["tier1"][f"el (Re z^10, Im z^10) --mode {mode} --seed {SEED}"] = (
            z10, ["el", "--json", "--mode", mode, "--seed", SEED])
        runs["tier1"][f"el ((x+y)^3, (y+z)^5, z^3) --mode {mode}"] = (
            cube, ["el", "--json", "--mode", mode])
        runs["tier1"][f"compute {mode} y^2 - x^801"] = (
            _text(mode, [y * y - x ** 801], [2 * y, 801 * x ** 800],
                  [Polynomial.zero(2)]),
            ["compute", "--json"])
    return runs


def run_entry(text, argv):
    """The record entry of one command on one problem text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "deep.prob"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv + [str(path)])
    assert code == 0, out.getvalue()
    payload = json.loads(out.getvalue())
    payload.pop("timing")
    digest = sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return {"problem": text, "command": argv, "sha256": digest,
            **{key: payload.get(key) for key in
               ("dim_B0", "dim_C0", "index", "signature")}}


def _expected(group):
    return json.loads(RECORD.read_text(encoding="utf-8"))[group]


@pytest.mark.parametrize("key", sorted(_runs()["tier1"]))
def test_deep_output_matches_record(key):
    want = _expected("tier1")[key]
    assert run_entry(want["problem"], want["command"]) == want


def test_record_covers_the_rungs():
    runs = _runs()
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert {group: sorted(keys) for group, keys in runs.items()} == {
        group: sorted(record[group]) for group in runs}


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        failed = []
        for key, want in _expected("ci_only").items():
            got = run_entry(want["problem"], want["command"])
            print("ok  " if got == want else "FAIL", key, {
                k: got[k] for k in ("dim_B0", "dim_C0", "index", "signature")})
            if got != want:
                failed.append(key)
        sys.exit(1 if failed else 0)
    record = {group: {key: run_entry(*run) for key, run in group_runs.items()}
              for group, group_runs in _runs().items()}
    RECORD.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n",
                      encoding="utf-8")
