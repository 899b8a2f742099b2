"""The benchmark's own checks reject corrupted outputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import sys
import unittest

import references
from common import SRC, source_path, tail_ms
from spans import self_times


def _service_payload(program: str, n: int, request: dict) -> dict:
    """A correct ``/execute`` reply built from the reference."""
    results = []
    for b in range(request.get("batch", 1)):
        state = references.expected_state(program, n, request["seed"] + b)
        results.append({var: [[*ix, int(values[ix])] for ix in _indices(values.shape)]
                        for var, values in state.items()})
    return {"results": results, "matched": True, "mismatched_elements": 0}


def _indices(shape):
    import numpy as np

    return [tuple(int(i) for i in ix) for ix in np.ndindex(*shape)]


class ServiceCheck(unittest.TestCase):
    cases = [("polyprod", 6, {"seed": 11, "batch": 1}),
             ("matmul", 4, {"seed": 12, "batch": 3}),
             ("matmul", 4, {"seed": 13, "batch": 1, "check": False})]

    def test_reference_reply_passes(self):
        for program, n, request in self.cases:
            payload = _service_payload(program, n, request)
            self.assertEqual(references.check_execute_response(
                program, n, request, 200, payload), [])

    def test_one_flipped_result_element_is_rejected(self):
        for program, n, request in self.cases:
            payload = _service_payload(program, n, request)
            payload["results"][-1]["c"][2][-1] += 1
            problems = references.check_execute_response(
                program, n, request, 200, payload)
            self.assertEqual(len(problems), 1, problems)
            self.assertIn(" c[", problems[0])

    def test_a_changed_input_stream_is_rejected(self):
        program, n, request = self.cases[0]
        payload = _service_payload(program, n, request)
        payload["results"][0]["a"][0][-1] += 1
        self.assertTrue(references.check_execute_response(
            program, n, request, 200, payload))

    def test_missing_element_and_missing_batch_entry_are_rejected(self):
        program, n, request = self.cases[1]
        payload = _service_payload(program, n, request)
        short = copy.deepcopy(payload)
        short["results"][1]["c"].pop()
        self.assertTrue(references.check_execute_response(
            program, n, request, 200, short))
        payload["results"].pop()
        self.assertTrue(references.check_execute_response(
            program, n, request, 200, payload))

    def test_the_programs_own_mismatch_flag_is_rejected(self):
        program, n, request = self.cases[0]
        payload = _service_payload(program, n, request)
        payload["matched"] = False
        self.assertTrue(references.check_execute_response(
            program, n, request, 200, payload))
        self.assertTrue(references.check_execute_response(
            program, n, request, 500, {"error": "boom"}))


def _explore_output(rows: list[tuple[tuple, int, int]], compilable: int) -> str:
    lines = ["step (1, 1, 1), costs at {'n': 4}:",
             "   place  procs  null   io  latches  stationary  total",
             "--------  -----  ----  ---  -------  ----------  -----"]
    for place, procs, null in rows:
        text = " ; ".join(str(row) for row in place)
        lines.append(f"   {text}  {procs:5d}  {null:4d}    1        0           0      1")
    lines.append("timings: synthesis 0.1s + compile/cost 3.0s = total 3.1s "
                 f"(228 candidates, {compilable} compilable, 1 size(s), jobs 1)")
    return "\n".join(lines)


class ExploreCheck(unittest.TestCase):
    places = [((1, 0, 0), (0, 1, 0)), ((1, 0, -1), (0, 1, -1)),
              ((1, -1, 1), (1, 0, 1))]

    def rows(self):
        points = list(references.matmul_iteration_space(4))
        return [(p, *references.bounding_box(p, points)) for p in self.places]

    def test_bounding_box_by_hand(self):
        rows = {place: (procs, null) for place, procs, null in self.rows()}
        self.assertEqual(rows[self.places[0]], (25, 0))
        # (i-k, j-k) spans [-4, 4]^2, but only the 61 cells with
        # |x - y| <= 4 are images of some (i, j, k)
        self.assertEqual(rows[self.places[1]], (81, 20))
        self.assertEqual(rows[self.places[2]], (117, 72))

    def test_reference_rows_pass(self):
        problems, candidates, compilable = references.check_explore_output(
            4, _explore_output(self.rows(), 3))
        self.assertEqual((problems, candidates, compilable), ([], 228, 3))

    def test_one_wrong_process_count_is_rejected(self):
        rows = self.rows()
        place, procs, null = rows[1]
        rows[1] = (place, procs + 1, null)
        problems, _, _ = references.check_explore_output(4, _explore_output(rows, 3))
        self.assertEqual(len(problems), 1, problems)
        self.assertIn("procs/null 82/20", problems[0])

    def test_one_wrong_null_count_and_a_lost_row_are_rejected(self):
        rows = self.rows()
        place, procs, null = rows[2]
        rows[2] = (place, procs, null - 1)
        self.assertTrue(references.check_explore_output(
            4, _explore_output(rows, 3))[0])
        self.assertTrue(references.check_explore_output(
            4, _explore_output(self.rows()[:2], 3))[0])


class CliCheck(unittest.TestCase):
    good = ("execute[npgen] {'n': 8}: batch 1, 35 elements/run, 0.036s\n"
            "oracle check: OK (bit-identical)\n")

    def test_reference_output_passes(self):
        self.assertEqual(references.check_cli_output("polyprod", 8, self.good), [])

    def test_failed_oracle_line_and_wrong_element_count_are_rejected(self):
        bad = self.good.replace("oracle check: OK (bit-identical)",
                                "MISMATCH: 1 element(s) disagree with the oracle")
        self.assertTrue(references.check_cli_output("polyprod", 8, bad))
        self.assertTrue(references.check_cli_output(
            "polyprod", 8, self.good.replace("35 elements", "34 elements")))
        self.assertEqual(len(references.check_cli_output("matmul", 8, self.good)), 1)


@unittest.skipUnless((SRC / "repro").is_dir(), "needs the program's source")
class InputConvention(unittest.TestCase):
    def test_regenerated_inputs_equal_random_inputs(self):
        sys.path.insert(0, str(SRC))
        from repro.lang.parser import parse_program
        from repro.verify.equivalence import random_inputs

        for program, n in (("polyprod", 5), ("matmul", 3)):
            parsed = parse_program(source_path(program).read_text())
            theirs = random_inputs(parsed, {"n": n}, seed=7)
            ours = references.regenerate_inputs(program, n, 7)
            for var in ("a", "b"):
                self.assertEqual(
                    {tuple(p): v for p, v in theirs[var].items()},
                    {ix: int(ours[var][ix]) for ix in _indices(ours[var].shape)})


class Statistics(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
            {"id": 2, "parent": 0, "start": 5.0, "end": 9.0},
            {"id": 3, "parent": 2, "start": 6.0, "end": 7.0},
        ]
        self.assertEqual(self_times(spans), {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})

    def test_tail_needs_forty_ops_and_leaves_ten_beyond(self):
        self.assertIsNone(tail_ms([0.1] * 39))
        percentile, value = tail_ms([i / 1000 for i in range(1, 51)])
        self.assertEqual((percentile, value), (80.0, 40.0))


if __name__ == "__main__":
    unittest.main()
