#!/usr/bin/env python3
"""Render EXPERIMENTS.md's tables from committed, stamped artifacts.

    python3 tools/experiments.py            rewrite every rendered block
    python3 tools/experiments.py --check    exit 1 if EXPERIMENTS.md is not
                                            what this would write, or a
                                            tracked file cites a heading it
                                            does not have
    python3 tools/experiments.py --compare DIR
                                            exit 1 unless DIR/<bench>.jsonl
                                            holds the committed rows of each
                                            figure bench, wall-clock aside

A rendered block is everything between `<!-- rendered: NAME -->` and
`<!-- end rendered -->`; the prose around the blocks is kept as written.
The blocks read two sets of artifacts:

- `results/fig7/<bench>.jsonl`: the `JSON` rows of one
  `cargo bench -p srb-bench --bench <bench>` run, the prefix stripped;
- `results/ledger/results-<seed>.json`: one `bench/run.sh --seed <seed>
  --out FILE` results file per seed.

A row without a stamp, or stamped with a commit that is `-dirty` or
`unknown`, is refused. Each table prints its stamp under it. Python
standard library only.
"""
import difflib
import json
import math
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC = "EXPERIMENTS.md"
FIG_DIR = os.path.join("results", "fig7")
LEDGER_DIR = os.path.join("results", "ledger")
BENCHES = [
    "fig7_1_delay",
    "fig7_2_queries",
    "fig7_3_objects",
    "fig7_4_mobility",
    "fig7_5_grid",
    "fig7_6_enhancements",
    "fault_sweep",
]
# Wall-clock: the one field a re-run does not repeat.
WALL_CLOCK = {"cpu_seconds_per_tu"}
# Files whose citations are history, not pointers.
UNCHECKED_CITERS = {"CHANGES.md"}


class Refused(Exception):
    pass


def check_commit(commit, where):
    if not isinstance(commit, str) or not commit:
        raise Refused(f"{where}: no commit stamp")
    if commit == "unknown" or commit.endswith("-dirty"):
        raise Refused(f"{where}: stamped {commit!r}, not a clean commit")


# --- Figures ----------------------------------------------------------------


def parse_rows(path):
    with open(path) as f:
        return [(n, json.loads(line)) for n, line in enumerate(f, 1) if line.strip()]


def load_rows(bench):
    path = os.path.join(FIG_DIR, bench + ".jsonl")
    rows = parse_rows(os.path.join(ROOT, path))
    if not rows:
        raise Refused(f"{path}: no rows")
    for n, row in rows:
        for key in ("commit", "cores", "scale"):
            if key not in row:
                raise Refused(f"{path}:{n}: no {key!r} in the stamp")
        check_commit(row["commit"], f"{path}:{n}")
    return path, [row for _, row in rows]


class Figure:
    """The rows of one bench, looked up by (figure, series, x)."""

    def __init__(self, bench):
        self.path, self.rows = load_rows(bench)

    def find(self, figure, series, x):
        key = (figure, series, x)
        return next((r for r in self.rows if (r["figure"], r["series"], r["x"]) == key), None)

    def get(self, figure, series, x):
        row = self.find(figure, series, x)
        if row is None:
            raise Refused(f"{self.path}: no row for figure {figure} {series} x={x}")
        return row

    def xs(self, figure, series):
        return [r["x"] for r in self.rows if (r["figure"], r["series"]) == (figure, series)]

    def stamp(self):
        stamps = sorted({(r["commit"], r["cores"], r["scale"]) for r in self.rows})
        said = "; ".join(f"commit `{c}`, {n} cores, {s} scale" for c, n, s in stamps)
        return f"*Stamp: {said}; {len(self.rows)} rows of `{self.path}`.*"


def sig(x, digits=3):
    """`x` in fixed point with `digits` significant digits."""
    if x == 0:
        return "0"
    if abs(x) >= 10 ** digits:
        return num(round(x))
    places = max(0, digits - 1 - math.floor(math.log10(abs(x))))
    return f"{x:.{places}f}"


def comm(x):
    """A communication cost: per client per time unit, three decimals."""
    return f"{x:.3f}"


def num(x):
    """An x value or a count as the bench gave it: 0.25, 2000, 1."""
    if isinstance(x, float) and not x.is_integer():
        return f"{x:g}"
    return f"{int(x):,}".replace(",", " ")


def times(a, b):
    return f"{a / b:.1f}×"


def pct(saved, base):
    return f"{100.0 * (base - saved) / base:+.1f} %"


def table(header, rows):
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return out


def fig7_1():
    f = Figure("fig7_1_delay")
    series = ["SRB", "PRD(0.1)", "PRD(1)", "OPT"]
    rows = []
    for tau in f.xs("7.1", "SRB"):
        cells = [num(tau)]
        for s in series:
            r = f.find("7.1", s, tau)
            cells.append("—" if r is None else f"{r['accuracy']:.3f} / {comm(r['comm_cost'])}")
        rows.append(cells)
    srb, opt = f.get("7.1", "SRB", 0), f.get("7.1", "OPT", 0)
    p1, p01 = f.get("7.1", "PRD(1)", 0), f.get("7.1", "PRD(0.1)", 0)
    return table(["τ"] + series, rows) + [
        "",
        f"SRB / OPT cost at τ = 0: {times(srb['comm_cost'], opt['comm_cost'])} "
        f"({comm(srb['comm_cost'])} / {comm(opt['comm_cost'])}).",
        f"CPU s/tu at τ = 0: SRB {sig(srb['cpu_seconds_per_tu'])}, "
        f"PRD(1) {sig(p1['cpu_seconds_per_tu'])}, PRD(0.1) {sig(p01['cpu_seconds_per_tu'])} "
        f"(PRD(0.1) / SRB {times(p01['cpu_seconds_per_tu'], srb['cpu_seconds_per_tu'])}).",
        "",
        f.stamp(),
    ]


def fig7_2():
    f = Figure("fig7_2_queries")
    ws = f.xs("7.2", "SRB")
    rows = []
    for w in ws:
        srb, opt = f.get("7.2", "SRB", w), f.get("7.2", "OPT", w)
        p1, p01 = f.get("7.2", "PRD(1)", w), f.get("7.2", "PRD(0.1)", w)
        rows.append([
            num(w),
            f"{srb['accuracy']:.3f}",
            comm(srb["comm_cost"]),
            comm(opt["comm_cost"]),
            sig(srb["cpu_seconds_per_tu"]),
            sig(p1["cpu_seconds_per_tu"]),
            sig(p01["cpu_seconds_per_tu"]),
        ])
    lo, hi = f.get("7.2", "SRB", ws[0]), f.get("7.2", "SRB", ws[-1])
    return table(
        ["W", "SRB accuracy", "SRB comm", "OPT comm", "SRB cpu s/tu", "PRD(1) cpu", "PRD(0.1) cpu"],
        rows,
    ) + [
        "",
        f"W = {num(ws[0])} → {num(ws[-1])} ({times(ws[-1], ws[0])} the queries): "
        f"SRB comm {times(hi['comm_cost'], lo['comm_cost'])}, "
        f"SRB cpu {times(hi['cpu_seconds_per_tu'], lo['cpu_seconds_per_tu'])}.",
        "",
        f.stamp(),
    ]


def fig7_3():
    f = Figure("fig7_3_objects")
    ns = f.xs("7.3", "SRB")
    rows = []
    for n in ns:
        srb, opt = f.get("7.3", "SRB", n), f.get("7.3", "OPT", n)
        p1, p01 = f.get("7.3", "PRD(1)", n), f.get("7.3", "PRD(0.1)", n)
        rows.append([
            num(n),
            sig(srb["cpu_seconds_per_tu"]),
            sig(p1["cpu_seconds_per_tu"]),
            sig(p01["cpu_seconds_per_tu"]),
            times(p01["cpu_seconds_per_tu"], srb["cpu_seconds_per_tu"]),
            comm(srb["comm_cost"]),
            comm(opt["comm_cost"]),
            num(srb["uplinks"]),
        ])
    first, last = ns[0], ns[-1]
    def cpu(s, n):
        return f.get("7.3", s, n)["cpu_seconds_per_tu"]

    grow = [f"{s} cpu {times(cpu(s, last), cpu(s, first))}" for s in ("SRB", "PRD(1)", "PRD(0.1)")]
    up = times(f.get("7.3", "SRB", last)["uplinks"], f.get("7.3", "SRB", first)["uplinks"])
    return table(
        ["N", "SRB cpu s/tu", "PRD(1) cpu", "PRD(0.1) cpu", "PRD(0.1) / SRB cpu",
         "SRB comm", "OPT comm", "SRB uplinks"],
        rows,
    ) + [
        "",
        f"N = {num(first)} → {num(last)} ({times(last, first)} the objects): "
        + ", ".join(grow) + f", SRB uplinks {up}.",
        "",
        f.stamp(),
    ]


def fig7_4():
    f = Figure("fig7_4_mobility")
    vs = f.xs("7.4a", "SRB")
    rows = []
    for v in vs:
        srb, opt = f.get("7.4a", "SRB", v), f.get("7.4a", "OPT", v)
        rows.append([
            num(v),
            f"{srb['accuracy']:.3f}",
            comm(srb["comm_cost"]),
            sig(srb["comm_cost_per_distance"]),
            comm(opt["comm_cost"]),
        ])
    lo, hi = f.get("7.4a", "SRB", vs[0]), f.get("7.4a", "SRB", vs[-1])
    a = table(["v̄", "SRB accuracy", "SRB comm", "SRB comm / distance", "OPT comm"], rows)
    a += [
        "",
        f"v̄ = {num(vs[0])} → {num(vs[-1])} ({times(vs[-1], vs[0])} the speed): "
        f"comm {times(hi['comm_cost'], lo['comm_cost'])}, comm / distance "
        f"{times(hi['comm_cost_per_distance'], lo['comm_cost_per_distance'])}.",
    ]
    tvs = f.xs("7.4b", "SRB")
    b_rows = [
        [num(tv), f"{r['accuracy']:.3f}", comm(r["comm_cost"])]
        for tv, r in ((tv, f.get("7.4b", "SRB", tv)) for tv in tvs)
    ]
    costs = [f.get("7.4b", "SRB", tv)["comm_cost"] for tv in tvs]
    b = table(["t̄v", "SRB accuracy", "SRB comm"], b_rows)
    b += [
        "",
        f"t̄v = {num(tvs[0])} → {num(tvs[-1])}: comm spans "
        f"{comm(min(costs))} … {comm(max(costs))} ({times(max(costs), min(costs))}).",
    ]
    return ["(a) mean speed v̄", ""] + a + ["", "(b) movement period t̄v", ""] + b + [
        "",
        f.stamp(),
    ]


def fig7_5():
    f = Figure("fig7_5_grid")
    ms = f.xs("7.5", "SRB")
    rows = [
        [num(m), f"{r['accuracy']:.3f}", comm(r["comm_cost"]), sig(r["cpu_seconds_per_tu"]),
         num(r["uplinks"]), num(r["probes"])]
        for m, r in ((m, f.get("7.5", "SRB", m)) for m in ms)
    ]
    def cost(m):
        return f.get("7.5", "SRB", m)["comm_cost"]

    best = min(ms, key=cost)
    return table(["M", "SRB accuracy", "SRB comm", "SRB cpu s/tu", "uplinks", "probes"], rows) + [
        "",
        f"Cheapest M = {num(best)}; comm M = {num(ms[-1])} / M = {num(best)}: "
        f"{times(cost(ms[-1]), cost(best))}, M = {num(ms[0])} / M = {num(best)}: "
        f"{times(cost(ms[0]), cost(best))}.",
        "",
        f.stamp(),
    ]


def fig7_6():
    f = Figure("fig7_6_enhancements")

    def panel(figure, x_name, plus):
        rows = []
        for x in f.xs(figure, "SRB"):
            base, enh = f.get(figure, "SRB", x), f.get(figure, plus, x)
            rows.append([
                num(x),
                sig(base["comm_cost"], 4),
                sig(enh["comm_cost"], 4),
                pct(enh["comm_cost"], base["comm_cost"]),
                f"{num(base['probes'])} / {num(enh['probes'])}",
                f"{base['accuracy']:.3f} / {enh['accuracy']:.3f}",
            ])
        return table([x_name, "SRB comm", f"{plus} comm", "saving", "probes", "accuracy"], rows)

    return (
        ["(a) reachability circle vs W", ""]
        + panel("7.6a", "W", "SRB+reach")
        + ["", "(b) weighted perimeter (D = 0.5) vs t̄v", ""]
        + panel("7.6b", "t̄v", "SRB+steady")
        + ["", f.stamp()]
    )


def fault_sweep():
    f = Figure("fault_sweep")
    losses = f.xs("fault_sweep", "SRB")
    rows = []
    for loss in losses:
        srb, prd = f.get("fault_sweep", "SRB", loss), f.get("fault_sweep", "PRD(0.1)", loss)
        rows.append([
            f"{100 * loss:g} %",
            f"{srb['accuracy']:.3f}",
            comm(srb["comm_cost"]),
            num(srb["retransmissions"]),
            num(srb["lease_probes"]),
            f"{prd['accuracy']:.3f}",
            comm(prd["comm_cost"]),
        ])
    worst = losses[-1]
    srb, prd = f.get("fault_sweep", "SRB", worst), f.get("fault_sweep", "PRD(0.1)", worst)
    return table(
        ["loss", "SRB accuracy", "SRB comm", "retransmissions", "lease probes",
         "PRD(0.1) accuracy", "PRD(0.1) comm"],
        rows,
    ) + [
        "",
        f"At {100 * worst:g} % loss: PRD(0.1) / SRB cost "
        f"{times(prd['comm_cost'], srb['comm_cost'])}.",
        "",
        f.stamp(),
    ]


# --- Ledger -----------------------------------------------------------------


def load_ledger():
    names = os.listdir(os.path.join(ROOT, LEDGER_DIR))
    paths = sorted(
        (p for p in names if re.fullmatch(r"results-\d+\.json", p)),
        key=lambda p: int(re.search(r"\d+", p).group()),
    )
    if not paths:
        raise Refused(f"{LEDGER_DIR}: no results-<seed>.json")
    runs = []
    for p in paths:
        path = os.path.join(LEDGER_DIR, p)
        with open(os.path.join(ROOT, path)) as f:
            run = json.load(f)
        for key in ("commit", "nproc", "seed"):
            if key not in run:
                raise Refused(f"{path}: no {key!r} in the stamp")
        check_commit(run["commit"], path)
        runs.append(run)
    return runs


def quartiles(vals):
    med = statistics.median(vals)
    if len(vals) < 4:
        return med, None
    q = statistics.quantiles(vals, n=4)
    return med, (q[0], q[2])


def ledger():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    runs = load_ledger()
    metrics = bench["end_to_end"]
    header = ["workload"] + [f"`{m['name']}` ({m['unit']})" for m in metrics]
    header.append("failed / attempted")
    rows = []
    for w in (w["name"] for w in bench["workloads"]):
        cells = [f"`{w}`"]
        for m in metrics:
            vals = [r["workloads"][w]["end_to_end"][m["name"]]["value"] for r in runs]
            med, q = quartiles(vals)
            cells.append(sig(med) + ("" if q is None else f" [{sig(q[0])}, {sig(q[1])}]"))
        failed = sum(r["workloads"][w]["failed"] for r in runs)
        attempted = sum(r["workloads"][w]["attempted"] for r in runs)
        cells.append(f"{num(failed)} / {num(attempted)}")
        rows.append(cells)
    stamps = sorted({(r["commit"][:7], r["nproc"], r["scale"]["seconds"]) for r in runs})
    said = "; ".join(f"commit `{c}`, nproc {n}, {s:g} s per run" for c, n, s in stamps)
    seeds = [r["seed"] for r in runs]
    contiguous = seeds == list(range(seeds[0], seeds[0] + len(seeds)))
    if contiguous and len(seeds) > 2:
        seeds = f"{seeds[0]}–{seeds[-1]}"
    else:
        seeds = ", ".join(map(str, seeds))
    wrong = [str(r["seed"]) for r in runs if not r.get("correct")]
    verdict = "every run `correct`" if not wrong else "not `correct` at seed " + ", ".join(wrong)
    return table(header, rows) + [
        "",
        f"*Stamp: {said}; seeds {seeds} (`{LEDGER_DIR}/results-<seed>.json`); {verdict}.*",
    ]


BLOCKS = {
    "fig7_1": fig7_1,
    "fig7_2": fig7_2,
    "fig7_3": fig7_3,
    "fig7_4": fig7_4,
    "fig7_5": fig7_5,
    "fig7_6": fig7_6,
    "fault_sweep": fault_sweep,
    "ledger": ledger,
}

BEGIN = re.compile(r"<!-- rendered: (\w+) -->")
END = "<!-- end rendered -->"


def render(text):
    out, lines, i = [], text.split("\n"), 0
    seen = set()
    while i < len(lines):
        out.append(lines[i])
        m = BEGIN.fullmatch(lines[i].strip())
        i += 1
        if not m:
            continue
        name = m.group(1)
        if name not in BLOCKS:
            raise Refused(f"{DOC}: unknown block {name!r}")
        seen.add(name)
        while i < len(lines) and lines[i].strip() != END:
            i += 1
        if i == len(lines):
            raise Refused(f"{DOC}: block {name!r} has no {END!r}")
        out += [""] + BLOCKS[name]() + [""]
    missing = sorted(set(BLOCKS) - seen)
    if missing:
        raise Refused(f"{DOC}: no block for {', '.join(missing)}")
    return "\n".join(out)


# --- Citations --------------------------------------------------------------

COMMENT = re.compile(r"^\s*(?://[/!]?|#+)?\s*")
CITATION = re.compile(r"EXPERIMENTS\.md(?:'s)?[\s(,]*\"([A-Z0-9][^\"]*)\"")


def headings(text):
    return [h.replace("\\*", "*").strip() for h in re.findall(r"^#+ (.*)$", text, re.M)]


def bad_citations(doc_text):
    have = headings(doc_text)
    files = subprocess.run(
        ["git", "ls-files"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.split()
    bad = []
    for path in files:
        if path in UNCHECKED_CITERS:
            continue
        try:
            with open(os.path.join(ROOT, path), encoding="utf-8") as f:
                text = f.read()
        except (UnicodeDecodeError, OSError):
            continue
        if "EXPERIMENTS.md" not in text:
            continue
        flat = " ".join(COMMENT.sub("", line) for line in text.split("\n"))
        flat = re.sub(r"\s+", " ", flat)
        for cited in CITATION.findall(flat):
            cited = cited.replace("\\*", "*").strip()
            if not any(h.startswith(cited) for h in have):
                bad.append(f'{path}: cites EXPERIMENTS.md "{cited}", which has no such heading')
    return bad


def compare(out_dir):
    differ = 0
    for bench in BENCHES:
        committed = load_rows(bench)[1]
        path = os.path.join(out_dir, bench + ".jsonl")
        if not os.path.exists(path):
            print(f"{bench}: no {path}")
            differ += 1
            continue
        fresh = [row for _, row in parse_rows(path)]
        if len(fresh) != len(committed):
            print(f"{bench}: {len(fresh)} rows, {len(committed)} committed")
            differ += 1
            continue
        for old, new in zip(committed, fresh):
            keys = sorted((set(old) | set(new)) - WALL_CLOCK)
            changed = [k for k in keys if old.get(k) != new.get(k)]
            if changed:
                differ += 1
                where = f"{bench} {old['figure']} {old['series']} x={old['x']}"
                print(f"{where}: differs in {', '.join(changed)}")
        print(f"{bench}: {len(fresh)} rows compared")
    return 1 if differ else 0


def main(argv):
    try:
        if "--compare" in argv:
            return compare(argv[argv.index("--compare") + 1])
        path = os.path.join(ROOT, DOC)
        with open(path, encoding="utf-8") as f:
            current = f.read()
        wanted = render(current)
        if "--check" not in argv:
            if wanted != current:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(wanted)
            return 0
        status = 0
        if wanted != current:
            diff = difflib.unified_diff(
                current.split("\n"),
                wanted.split("\n"),
                f"{DOC} (as committed)",
                f"{DOC} (as rendered)",
                lineterm="",
            )
            print("\n".join(diff))
            print(f"{DOC} differs from its artifacts: run python3 tools/experiments.py")
            status = 1
        for line in bad_citations(wanted):
            print(line)
            status = 1
        return status
    except Refused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
