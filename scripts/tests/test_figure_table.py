"""Tests for scripts/figure_table.py (run: python3 -m unittest discover -s scripts/tests).

fixtures/fixture_records.json holds real default-window records: Firefly's
four set-1 peaks, the four Figure 3-3 companion runs at those knees and the
four restricted-waveguide runs.  fixtures/fixture_tables.txt is the text the
renderer prints for them, byte for byte what metrics::ReportTable printed for
the same two tables.
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import figure_table  # noqa: E402

FIXTURE = os.path.join(HERE, "fixtures", "fixture_records.json")
GOLDEN = os.path.join(HERE, "fixtures", "fixture_tables.txt")


def render_quietly(paths):
    notes = io.StringIO()
    with contextlib.redirect_stderr(notes):
        text = figure_table.render(paths)
    return text, notes.getvalue()


class FigureTableTest(unittest.TestCase):
    def test_fixture_renders_golden_text(self):
        text, notes = render_quietly([FIXTURE])
        with open(GOLDEN) as handle:
            self.assertEqual(text, handle.read())
        # Column padding keeps trailing spaces; percents are always signed.
        self.assertIn("uniform  0.00285  812.03          810.50            -0.2% \n", text)
        self.assertIn("+10.7%\n", text)
        # Figures without records are named on stderr, not printed.
        self.assertIn("skipped fig3_3", notes)
        self.assertNotIn("Figure 3-3(a)", text)

    def test_zero_gbps_denominator_prints_na(self):
        with open(FIXTURE) as handle:
            doc = json.load(handle)
        for record in doc["records"]:
            if record["name"] == "peak" and record["pattern"] == "uniform":
                record["gbps"] = 0.0
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "BENCH_zero.json")
            with open(path, "w") as handle:
                json.dump(doc, handle)
            text, _ = render_quietly([path])
        row = next(line for line in text.splitlines() if line.startswith("uniform"))
        self.assertEqual(row.split()[2:], ["0.00", "810.50", "n/a"])

    def test_companion_grid_loads_round_trip_exactly(self):
        with open(FIXTURE) as handle:
            knees = {r["pattern"]: r["offered_load"] for r in json.load(handle)["records"]
                     if r["name"] == "peak"}
        specs = json.loads(figure_table.companion_grid(FIXTURE))
        self.assertEqual([s["pattern"] for s in specs], list(figure_table.PATTERNS))
        for spec in specs:
            self.assertEqual(spec["load"], knees[spec["pattern"]])
            self.assertEqual((spec["arch"], spec["set"], spec["seed"], spec["label"]),
                             ("dhetpnoc", 1, 7, figure_table.KNEE_LABEL))
        # Shortest round-trip text: a shorter 0.00284765625 would be a
        # different double, so a lossy writer changes the companion loads.
        self.assertIn("0.0028476562499999995", figure_table.companion_grid(FIXTURE))

    def test_report_table_number_formats(self):
        self.assertEqual(figure_table.num(812.032), "812.03")
        self.assertEqual(figure_table.num(0.0015187499999999999, 5), "0.00152")
        self.assertEqual(figure_table.percent(0.0), "+0.0%")
        self.assertEqual(figure_table.percent(-0.1089), "-10.9%")
        self.assertEqual(figure_table.gain(2.0, 0.0), "n/a")


if __name__ == "__main__":
    unittest.main()
