#!/usr/bin/env python3
"""Print the paper's simulated figure tables from BENCH records.

Usage:
  figure_table.py BENCH_paper_peaks.json [BENCH_paper_runs.json ...]
  figure_table.py companion-grid BENCH_paper_peaks.json > paper_companion.json

The simulated figures are two committed grids run by pnoc_run:

  pnoc_run @bench/grids/paper_peaks.json mode=peak bench=paper_peaks
  pnoc_run @bench/grids/paper_runs.json bench=paper_runs
  paper_tables        # model-derived tables + `area` records

Given those BENCH files this prints Figures 3-3, 3-4, 3-5, 3-7, 3-8/3-9 and
3-10 and both ablations.  Each figure needs its own records; a figure whose
records are absent is skipped with a note on stderr.  The Figure 3-3
companion table (d-HetPNoC at Firefly's set-1 knee) is a second stage:
`companion-grid` writes its 4-spec run grid from the peak records, and
pnoc_run runs it with the peaks' scenario keys:

  pnoc_run @paper_companion.json bench=paper_companion

Layout and number formatting match metrics::ReportTable (num/percent), and
BENCH doubles are printed at %.17g, so every derived ratio here is the same
double the simulator would compute.  A ratio over a zero denominator prints
"n/a".
"""
import json
import sys

PATTERNS = ("uniform", "skewed1", "skewed2", "skewed3")
CASE_STUDIES = ("skewed-hotspot1", "skewed-hotspot2", "skewed-hotspot3",
                "skewed-hotspot4", "real-apps")
WAVELENGTHS = {1: 64, 2: 256, 3: 512}  # Table 3-1 total wavelengths per set
CORES = 64
KNEE_LABEL = "firefly_knee"
SET_HEADER = ["traffic"] + [f"BW set {s} ({n})" for s, n in WAVELENGTHS.items()]
ARCH_NAME = {"firefly": "Firefly", "dhetpnoc": "d-HetPNoC"}


def num(value, precision=2):
    return "%.*f" % (precision, value)


def percent(fraction, precision=1):
    return "%+.*f%%" % (precision, fraction * 100.0)


def gain(new, old):
    """ReportTable::percent(new / old - 1.0), or n/a over a zero `old`."""
    return "n/a" if old == 0 else percent(new / old - 1.0)


def table(title, header, rows):
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]

    def line(row):
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths))

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join(["", f"== {title} ==", line(header), rule]
                     + [line(row) for row in rows]) + "\n"


class Records:
    """Peak records by (arch, pattern, set), run records in file order, and
    `area` records by (arch, wavelengths).  Fail-soft failure records carry
    no metrics and are left out."""

    def __init__(self, paths):
        self.peaks, self.runs, self.areas = {}, [], {}
        for path in paths:
            with open(path) as handle:
                for record in json.load(handle)["records"]:
                    if record.get("failed"):
                        continue
                    if record["name"] == "peak":
                        key = (record["arch"], record["pattern"], record["bandwidth_set"])
                        self.peaks[key] = record
                    elif record["name"] == "run":
                        self.runs.append(record)
                    elif record["name"] == "area":
                        key = (record["arch"], record["wavelengths"])
                        self.areas[key] = record["area_mm2"]

    def peak(self, arch, pattern, bw_set=1):
        return self.peaks[(arch, pattern, bw_set)]

    def labelled(self, predicate, what):
        runs = [r for r in self.runs if predicate(r.get("label", ""))]
        if not runs:
            raise KeyError(what)
        return runs


def per_core(record):
    return record["gbps"] / CORES


def fig3_3(data):
    out = ""
    for bw_set, lambdas in WAVELENGTHS.items():
        rows = []
        for pattern in PATTERNS:
            ff, dh = data.peak("firefly", pattern, bw_set), data.peak("dhetpnoc", pattern, bw_set)
            rows.append([pattern, num(ff["gbps"]), num(dh["gbps"]), gain(dh["gbps"], ff["gbps"]),
                         num(ff["offered_load"], 5), num(dh["offered_load"], 5)])
        out += table(f"Figure 3-3({'abc'[bw_set - 1]}): Peak Bandwidth, BW Set {bw_set}"
                     f" (Total Wavelengths = {lambdas})",
                     ["traffic", "Firefly (Gb/s)", "d-HetPNoC (Gb/s)", "d-HetPNoC gain",
                      "Firefly load*", "d-HetPNoC load*"], rows)
    return out + ("\n* load = offered packets/core/cycle at the peak (mix-preserving"
                  " acceptance >= 0.90; see DESIGN.md).\n")


def fig3_3_companion(data):
    knees = {r["pattern"]: r for r in data.labelled(lambda label: label == KNEE_LABEL, KNEE_LABEL)}
    rows = []
    for pattern in PATTERNS:
        ff, dh = data.peak("firefly", pattern), knees[pattern]
        rows.append([pattern, num(dh["load"], 5), num(ff["gbps"]), num(dh["gbps"]),
                     gain(dh["gbps"], ff["gbps"])])
    return table("Fig 3-3 companion: delivered Gb/s at a common load (Firefly knee), BW set 1",
                 ["traffic", "load", "Firefly (Gb/s)", "d-HetPNoC (Gb/s)", "gain"], rows)


def fig3_4(data):
    out = ""
    for bw_set, lambdas in WAVELENGTHS.items():
        rows = []
        for pattern in PATTERNS:
            ff = data.peak("firefly", pattern, bw_set)["energy_per_packet_pj"]
            dh = data.peak("dhetpnoc", pattern, bw_set)["energy_per_packet_pj"]
            rows.append([pattern, num(ff, 1), num(dh, 1), gain(dh, ff)])
        out += table(f"Figure 3-4({'abc'[bw_set - 1]}): Packet Energy, BW Set {bw_set}"
                     f" (Total Wavelengths = {lambdas})",
                     ["traffic", "Firefly EPM (pJ)", "d-HetPNoC EPM (pJ)", "d-HetPNoC delta"],
                     rows)
    return out


def fig3_5(data):
    rows = []
    for pattern in CASE_STUDIES:
        ff, dh = data.peak("firefly", pattern), data.peak("dhetpnoc", pattern)
        ff_epm, dh_epm = ff["energy_per_packet_pj"], dh["energy_per_packet_pj"]
        rows.append([pattern, num(per_core(ff), 3), num(per_core(dh), 3),
                     gain(per_core(dh), per_core(ff)), num(ff_epm, 1), num(dh_epm, 1),
                     gain(dh_epm, ff_epm)])
    return table("Figure 3-5: Peak Core Bandwidth and Packet Energy, BW set 1",
                 ["traffic", "Firefly (Gb/s/core)", "d-HetPNoC (Gb/s/core)", "BW gain",
                  "Firefly EPM (pJ)", "d-HetPNoC EPM (pJ)", "EPM delta"], rows)


def bandwidth_sets(data, arch, figure):
    """Figures 3-7 (d-HetPNoC) and 3-10 (Firefly): peak core bandwidth and
    EPM of one architecture across the three bandwidth sets."""
    name = ARCH_NAME[arch]
    peaks = [[data.peak(arch, p, s) for s in WAVELENGTHS] for p in PATTERNS]
    bw = [[p] + [num(per_core(r), 3) for r in row] for p, row in zip(PATTERNS, peaks)]
    epm = [[p] + [num(r["energy_per_packet_pj"], 1) for r in row]
           for p, row in zip(PATTERNS, peaks)]
    return (table(f"Figure {figure}(a): {name} Peak Core Bandwidth (Gb/s/core)", SET_HEADER, bw)
            + table(f"Figure {figure}(b): {name} Energy Per Message (pJ)", SET_HEADER, epm))


def scaling(title, rows):
    return table(title, ["quantity", "measured", "paper"], rows)


def fig3_7(data):
    return bandwidth_sets(data, "dhetpnoc", "3-7")


def fig3_8_9(data):
    peaks = {s: data.peak("dhetpnoc", "skewed3", s) for s in WAVELENGTHS}
    area = {s: data.areas[("dhetpnoc", n)] for s, n in WAVELENGTHS.items()}
    rows = [[str(n), num(area[s], 3), num(peaks[s]["gbps"]),
             num(peaks[s]["energy_per_packet_pj"], 1)] for s, n in WAVELENGTHS.items()]
    return (table("Figures 3-8/3-9: d-HetPNoC area vs peak bandwidth and EPM (skewed3)",
                  ["wavelengths", "area mm^2", "peak BW (Gb/s)", "EPM (pJ)"], rows)
            + scaling("64 -> 512 wavelength scaling (paper: +70% area, +751.31% BW,"
                      " -10.89% EPM)",
                      [["total area", gain(area[3], area[1]), "+70%"],
                       ["peak bandwidth", gain(peaks[3]["gbps"], peaks[1]["gbps"]),
                        "+751.31%"],
                       ["energy per message", gain(peaks[3]["energy_per_packet_pj"],
                                                   peaks[1]["energy_per_packet_pj"]),
                        "-10.89%"]]))


def fig3_10(data):
    low, high = data.peak("firefly", "skewed3", 1), data.peak("firefly", "skewed3", 3)
    area = data.areas[("firefly", 512)], data.areas[("firefly", 64)]
    return (bandwidth_sets(data, "firefly", "3-10")
            + scaling("Firefly 64 -> 512 scaling (paper: +41.17% area, +764.52% BW,"
                      " -10.85% EPM)",
                      [["total area", gain(*area), "+41.17%"],
                       ["peak bandwidth (skewed3)", gain(high["gbps"], low["gbps"]),
                        "+764.52%"],
                       ["energy per message (skewed3)",
                        gain(high["energy_per_packet_pj"], low["energy_per_packet_pj"]),
                        "-10.85%"]]))


def run_table(title, first_column, runs, row_label):
    rows = [[row_label(r["label"]), num(r["gbps"]), num(r["acceptance"], 3),
             num(r["avg_latency_cycles"], 1), num(r["energy_per_packet_pj"], 1)]
            for r in runs]
    return table(title, [first_column, "Gb/s", "accept", "avg lat", "EPM pJ"], rows)


def swept(data, key):
    """Run records labelled `key=value`, in grid order."""
    return data.labelled(lambda label: label.startswith(key + "="), key + "=*")


def value(label):
    return label.split("=", 1)[1]


def ablation_dba(data):
    return (run_table("Ablation: token hop latency (skewed3, set 1, load 0.0012)",
                      "hop latency", swept(data, "token_hop"),
                      lambda label: value(label) + " cycles")
            + "Steady demand makes the ring latency nearly free (allocation happens\n"
              "once); it would matter under rapid task remapping (Section 3.2.1).\n"
            + run_table("Ablation: reserved wavelengths per cluster", "reserved/cluster",
                        swept(data, "reserved"), value)
            + "A larger floor shrinks the tradeable pool (N_TW of eq. (1)) and with\n"
              "it the hot clusters' achievable channel width under skew.\n"
            + run_table("Ablation: per-channel wavelength cap (Table 3-3 uses 8)", "cap",
                        swept(data, "channel_cap"), value)
            + "Caps below the hot class's demand (8 lambdas) reproduce Firefly-like\n"
              "congestion; caps above it cannot help because demand, not supply,\n"
              "saturates first.\n")


def ablation_restricted(data):
    runs = data.labelled(lambda label: label == "unrestricted" or label.startswith("writable="),
                         "writable=*")
    return run_table("Runtime: restricted DBA on the full system (skewed3, BW set 3, load 0.006)",
                     "writable waveguides/router", runs,
                     lambda label: label if label == "unrestricted" else value(label))


FIGURES = (fig3_3, fig3_3_companion, fig3_4, fig3_5, fig3_7, fig3_8_9, fig3_10,
           ablation_dba, ablation_restricted)


def render(paths):
    data = Records(paths)
    out = ""
    for figure in FIGURES:
        try:
            out += figure(data)
        except KeyError as missing:
            print(f"figure_table: skipped {figure.__name__}: no record for {missing}",
                  file=sys.stderr)
    return out


def companion_grid(path):
    """The stage-2 run grid: d-HetPNoC at each of Firefly's set-1 knee loads.
    json.dumps writes floats at shortest round-trip, so each load parses back
    to the exact offered_load double of the peak record."""
    data = Records([path])
    specs = []
    for pattern in PATTERNS:
        knee = data.peak("firefly", pattern)
        specs.append({"label": KNEE_LABEL, "arch": "dhetpnoc", "pattern": pattern, "set": 1,
                      "load": knee["offered_load"], "seed": knee["seed"]})
    return "[\n" + ",\n".join("  " + json.dumps(spec) for spec in specs) + "\n]\n"


def main(argv):
    if len(argv) == 2 and argv[0] == "companion-grid":
        sys.stdout.write(companion_grid(argv[1]))
        return 0
    if not argv or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    sys.stdout.write(render(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
