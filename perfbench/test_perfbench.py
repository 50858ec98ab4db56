"""Tests of the benchmark itself: oracle, answer checks and tracer.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a gsvindex checkout; gsvindex is imported from src/.
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oracle import Poly  # noqa: E402

IDENTITY2 = [[1, 0], [0, 1]]


def _dk_answer(k, m, **changes):
    exp = oracle.dk_expected(k, m)
    d_C0 = exp["dim_C0"]
    plus = (d_C0 + exp["index"]) // 2
    answer = {"dim_B0": exp["dim_B0"], "dim_B0_mod_DF": exp["dim_B0"] - d_C0,
              "dim_C0": d_C0, "index": exp["index"], "sig": [plus, d_C0 - plus, d_C0]}
    answer.update(changes)
    return answer


class OracleTest(unittest.TestCase):
    def test_dk_closed_forms(self):
        for k, m in ((4, 3), (4, 4), (5, 4), (6, 3)):
            f, X, _ = oracle.dk(k, m)
            dim_B0, dim_mod, index = oracle.complex_index(f, X, IDENTITY2)
            exp = oracle.dk_expected(k, m)
            self.assertEqual(dim_B0, exp["dim_B0"], (k, m))
            self.assertEqual(index, exp["dim_C0"], (k, m))

    def test_zk_multiplicity(self):
        for k in (1, 2, 3, 4, 5):
            self.assertEqual(oracle.local_length(oracle.zk_map(k)),
                             oracle.zk_expected(k)["dim"])

    def test_monomial_ideal_and_unit(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        self.assertEqual(oracle.local_length([x ** 2, y ** 3]), 6)
        self.assertEqual(oracle.local_length([x - y * y, y ** 3 + x * y]), 3)
        self.assertEqual(oracle.local_length([x, y - Poly.const(2, 1)]), 0)

    def test_not_isolated_raises(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        with self.assertRaises(ValueError):
            oracle.local_length([x * y], max_N=8)

    def test_coordinate_change_keeps_tangency(self):
        f, X, C = oracle.dk(5, 4)
        f2, X2, C2 = oracle.change_coordinates(f, X, [[2, 1], [1, 1]], C)
        lhs = sum((f2[0].diff(i) * X2[i] for i in range(2)), Poly(2))
        self.assertEqual(lhs, C2[0][0] * f2[0])

    def test_parse_round_trip(self):
        names = ["x", "y", "z"]
        p = oracle.parse("-3/2*x^2*z - (x - y)^2 + 7", names)
        self.assertEqual(oracle.parse(p.render(names), names), p)


class CheckTest(unittest.TestCase):
    def setUp(self):
        _, self.expect = workloads.build("plane-real", 1)
        self.checker = workloads.Checker(self.expect)

    def test_right_answer_passes(self):
        self.assertEqual(self.checker.verdict("dk(5,4)", _dk_answer(5, 4))[0],
                         workloads.OK)

    def test_wrong_index_or_signature_is_a_failed_operation(self):
        bad_index = _dk_answer(5, 4, index=0, sig=[6, 6, 12])
        bad_sig = _dk_answer(5, 4, sig=[8, 5, 13])
        passes = [{"ops": [{"name": "dk(5,4)", "answer": _dk_answer(5, 4)},
                           {"name": "dk(5,4)", "answer": bad_index},
                           {"name": "dk(5,4)", "answer": bad_sig}]}]
        attempted, failed, correct, notes = run.tally(self.checker, passes)
        self.assertEqual((attempted, failed, correct), (3, 2, False))
        self.assertTrue(all(n.startswith("wrong") for n in notes))

    def test_mixed_signature_bounds(self):
        _, expect = workloads.build("plane-mixed", 1)
        checker = workloads.Checker(expect)
        good = _dk_answer(5, 4, dim_B0=19)
        self.assertEqual(checker.verdict("dk(5,4)", good)[0], workloads.OK)
        odd = _dk_answer(5, 4, dim_B0=19, index=1, sig=[6, 5, 11])
        self.assertEqual(checker.verdict("dk(5,4)", odd)[0], workloads.WRONG)
        self.assertEqual(workloads._check_dk({"mixed": True}, _dk_answer(
            5, 4, index=13, sig=[13, 0, 13]))[0], workloads.WRONG)

    def test_error_is_failed_not_wrong(self):
        passes = [{"ops": [{"name": "zk(3)", "answer": {"error": "ValueError: x"}}]}]
        self.assertEqual(run.tally(self.checker, passes)[:3], (1, 1, True))

    def test_fault_inputs(self):
        _, expect = workloads.build("space-cli", 1)
        checker = workloads.Checker(expect)
        ok_regular = {"code": 0, "stdout": json.dumps({"index": 0}), "stderr": ""}
        bad_regular = {"code": 0, "stdout": json.dumps({"index": 1}), "stderr": ""}
        self.assertEqual(checker.verdict("regular-point", ok_regular)[0], workloads.OK)
        self.assertEqual(checker.verdict("regular-point", bad_regular)[0],
                         workloads.WRONG)
        shape = {"code": 3, "stdout": "", "stderr": "error: ..."}
        self.assertEqual(checker.verdict("off-curve", shape)[0], workloads.OK)
        verdict = {"code": 0, "stdout": json.dumps({"index": 0}), "stderr": ""}
        self.assertEqual(checker.verdict("off-curve", verdict)[0], workloads.WRONG)

    def test_space_report_identities(self):
        import gsvindex.cli

        ops, expect = workloads.build("space-cli", 1)
        op = next(o for o in ops if o["name"] == "space(l=2)")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / op["file"]
            path.write_text(op["text"])
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = gsvindex.cli.main(["compute", str(path), *op["args"]])
        payload = {"code": code, "stdout": out.getvalue(), "stderr": ""}
        checker = workloads.Checker(expect)
        self.assertEqual(checker.verdict(op["name"], payload), (workloads.OK, ""))

        def tampered(edit):
            rep = json.loads(payload["stdout"])
            edit(rep)
            return dict(payload, stdout=json.dumps(rep))

        def bump_index(rep):
            rep["index"] += 1
            rep["dim_C0"] += 1

        def bend_witness(rep):
            rep["goodness"]["witnesses"][0]["denominator"] = "2"

        def bend_deformation(rep):
            comps = rep["deformation"]["components"]
            comps[0] = comps[0] + " + x*t1"

        for edit in (bump_index, bend_witness, bend_deformation):
            status, _ = workloads.Checker(expect).verdict(op["name"], tampered(edit))
            self.assertEqual(status, workloads.WRONG, edit.__name__)


class TracerTest(unittest.TestCase):
    def _solve_traced(self, targets):
        import gsvindex

        ops, _ = workloads.build("plane-real", 1)
        op = next(o for o in ops if o["name"] == "dk(4,3)")
        v = tuple(op["vars"])
        problem = gsvindex.Problem(
            vars=v, f=tuple(gsvindex.parse_poly(s, v) for s in op["f"]),
            X=tuple(gsvindex.parse_poly(s, v) for s in op["X"]),
            C=gsvindex.PolyMatrix(1, 1, [gsvindex.parse_poly(op["C"][0][0], v)]),
            field="real")
        tr = tracer.Tracer(targets)
        tr.install()
        try:
            with tr.span("op"):
                report = gsvindex.real_gsv_index(problem)
        finally:
            tr.uninstall()
        return tr, report

    def test_wraps_every_importing_module(self):
        import gsvindex.algebra
        import gsvindex.index

        original = gsvindex.algebra.build_algebra
        tr, report = self._solve_traced(tracer.TARGETS)
        self.assertIs(gsvindex.index.build_algebra, original)  # restored
        self.assertEqual(tr.absent, [])
        m = tr.metrics()
        self.assertEqual(m["algebra.dim_B0"], report.dim_B0)
        self.assertEqual(m["algebra.dim_C0"], report.dim_C0)
        self.assertEqual(m["sigform.gram_dim"], report.dim_C0)
        self.assertGreater(m["linalg.mat_vec_calls"], 0)
        self.assertGreater(m["algebra.build_s"], 0)
        selfs, incl, _ = tr.self_times()
        self.assertAlmostEqual(sum(selfs.values()), incl["op"], places=6)

    def test_missing_functions_are_absent_and_run_goes_on(self):
        import gsvindex._groebner  # noqa: F401  (loaded before it is hidden)

        targets = tracer.TARGETS + (("gsvindex.algebra", "no_such_function"),)
        saved = sys.modules["gsvindex._groebner"]
        sys.modules["gsvindex._groebner"] = None  # as if the module were deleted
        try:
            tr, report = self._solve_traced(targets)
        finally:
            sys.modules["gsvindex._groebner"] = saved
        self.assertEqual(report.index, 0)
        self.assertIn("algebra.no_such_function", tr.absent)
        self.assertIn("groebner.buchberger", tr.absent)
        gone = tr.absent_metrics()
        self.assertIn("groebner.divide_calls", gone)
        self.assertNotIn("algebra.build_s", gone)
        m = tr.metrics()
        self.assertEqual(set(m), {name for name, *_ in tracer.METRICS})
        self.assertEqual(m["groebner.divide_calls"], 0)


if __name__ == "__main__":
    unittest.main()
