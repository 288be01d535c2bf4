#!/usr/bin/env python3
"""The bench gate: run every smoke bench, then check what it wrote.

    python3 bench/guard.py [--build DIR] [--out DIR]
    python3 bench/guard.py --selftest

The first form runs each bench in SMOKE from DIR/bench (default: build) into
a fresh output directory (default: DIR/bench-out) and checks the BENCH_*.json
files there against ROWS, taking references from the BENCH_*.json committed
at the repository root.  It prints every row's verdict, then exits 1 if a
bench failed or a row failed.

--selftest needs no build.  It checks each row on copies of the committed
files: a value moved onto the row's bound passes (for a strict row, one step
inside it), one step past the bound fails, and no other row changes its
verdict; a missing file or key fails the row.
"""
import argparse
import copy
import glob
import json
import math
import operator
import os
import re
import subprocess
import sys
from collections import namedtuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One row per gate.
#   file   BENCH_<file>.json; several names check each file alike
#   path   dot path to the objects read: name[f,g] walks a list whose
#          elements are named by fields f and g (by position when empty) and
#          a|b walks both keys
#   key    the value read from each object (a|b reads both); a list value is
#          read element by element
#   test   >= <= > ==  the value against bound
#          true        the flag must be true
#          drift       value <= bound x the committed reference's value
#          band        reference / bound <= value <= reference x bound
#          paper       value within bound (relative) of the object's paper_at_8
#          order       the entries bound names, ordered by value as written
#   where  keep the objects whose field is true, false (!f), <= N (f<=N) or
#          equal to S (f=S)
Row = namedtuple("Row", "file path key test bound why where", defaults=("",))

FIGURES = ("fig06_spice fig07_track fig08_mcsparse_gematt11 fig09_mcsparse_gematt12 "
           "fig10_mcsparse_orsreg1 fig11_mcsparse_saylr4 fig12_ma28_gematt11 "
           "fig13_ma28_gematt12 fig14_ma28_orsreg1")
TABLE2 = "rows[loop,technique,input]"

ROWS = [
    Row("pd", "marking.series[p]", "privatized_speedup", ">=", 1.0,
        "PDMarks, which every speculative driver marks into, beats the dense oracle"),
    Row("pd", "reset", "privatized_flat", "true", None,
        "the PD log rewind is O(1) in the array size"),
    Row("pd", "marking.series[p]", "privatized_ns_per_mark", "drift", 3.0,
        "absolute ns get a loose band: runner hardware varies"),
    Row("doacross", "series[p]", "frontier_over_packed", "<=", 1.25,
        "at depth <= cores the parked frontier gets slack for futex bookkeeping",
        "!oversubscribed"),
    Row("doacross", "series[p]", "frontier_over_packed", "<=", 1.05,
        "oversubscribed, the parked frontier beats the spin chain it replaced "
        "(1.05: ratio noise)", "oversubscribed"),
    Row("doacross", "series[p]", "parks", ">", 0,
        "oversubscribed, waiters really park: the futex path is live", "oversubscribed"),
    Row("forkjoin", "launch", "substrate_speedup", ">=", 1.0,
        "a substrate launch beats the seed condvar pool"),
    Row("forkjoin", "", "auto_over_dynamic_chunk1", ">=", 2.0,
        "self-sized claim blocks amortize the counter against one claim per iteration"),
    Row("forkjoin", "launch", "substrate_ns", "drift", 3.0,
        "absolute ns get a loose band: runner hardware varies"),
    Row("undo", "undo", "undo_flat", "true", None,
        "undo at a fixed overshoot walks only the overshot writes, flat in n"),
    Row("undo", "clear", "clear_flat", "true", None, "the log rewind is O(1) in n"),
    Row("mem", "flags", "reuse_no_slower", "true", None,
        "arena recycling is no slower than the allocator churn it replaced"),
    Row("mem", "flags", "recycle_beats_mmap", "true", None,
        "arena recycling wins outright at 256 KiB"),
    Row("mem", "flags", "zero_steady_state_allocs", "true", None,
        "a warm retry loop takes no arena block and no OS trip"),
    Row("mem", "flags", "retry_flat", "true", None, "the per-retry reset is O(1) in n"),
    Row("mem", "steady_state.retry_cost[log2_n]", "us_per_retry", "drift", 3.0,
        "absolute us get a loose band: runner hardware varies"),
    Row("txn", "fused_undo.dense|stride8[arrays]", "speedup", ">=", 0.95,
        "fused undo at parity with the per-array loop on 2 and 4 arrays", "arrays<=4"),
    Row("txn", "fused_undo.dense|stride8[arrays]", "fused_us", "drift", 3.0,
        "absolute us get a loose band: runner hardware varies"),
    Row("txn", "steady_state", "arena_allocs|slow_allocs", "==", 0,
        "warm 2-array transaction strips allocate nothing"),
    Row("window", "overhead", "ratio", "<=", 1.5,
        "the budget controller stays noise next to the claim lock"),
    Row("window", "overhead", "budgeted_us", "drift", 3.0,
        "absolute us get a loose band: runner hardware varies"),
    Row(FIGURES, "series[label]", "speedups", "band", 3.0,
        "simulated curves are near-deterministic; the band catches planted regressions"),
    Row("table2", TABLE2, "measured_at_8", "band", 3.0,
        "simulated speedups are near-deterministic; the band catches planted regressions"),
    Row("table2", "rows[technique]", "measured_at_8", "order",
        "General-3 (no locks) > General-1 (locks)",
        "Fig. 6's shape: private traversal beats the locked one", "loop=SPICE LOAD 40"),
    Row("table2", "rows[input]", "measured_at_8", "order",
        "gematt11 >= gematt12 > saylr4 > orsreg1",
        "Figs. 8-11's shape: the paper's order of inputs", "loop=MCSPARSE DFACT 500"),
    Row("table2", TABLE2, "measured_at_8", "paper", 0.20,
        "every Table 2 row stays near the paper's Alliant FX/80 number"),
]

SMOKE = [[f"bench_{name}"] for name in FIGURES.split()] + [
    ["bench_table2_summary"],
    ["bench_micro_forkjoin"],
    # The obs bench takes its own disabled-path launch as the baseline: same
    # binary, same pool.
    ["bench_micro_obs", "BENCH_obs_seed.json", "/dev/null"],
    ["bench_micro_obs", "BENCH_obs.json", "BENCH_obs_seed.json"],
    ["bench_micro_pd"], ["bench_micro_doacross"], ["bench_micro_undo"],
    ["bench_micro_mem"], ["bench_micro_txn"], ["bench_micro_window"],
]

# One comparison: holder[key] op limit.  `other` locates the value the limit
# was computed from; `also` lists values that move with holder[key] by the
# same factor when the self-test plants it.
Cmp = namedtuple("Cmp", "holder key op limit text other also", defaults=(None, ()))
OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
       "true": lambda value, _: value is True}
# A comparison's last passing and first failing value of holder[key].
EDGE = {">=": lambda x: (x, math.nextafter(x, -math.inf)),
        "<=": lambda x: (x, math.nextafter(x, math.inf)),
        ">": lambda x: (math.nextafter(x, math.inf), x),
        "true": lambda _: (True, False)}


def keep(obj, where):
    if "<=" in where:
        field, n = where.split("<=")
        return obj[field] <= float(n)
    if "=" in where:
        field, s = where.split("=", 1)
        return str(obj[field]) == s
    return not where or bool(obj[where.lstrip("!")]) != where.startswith("!")


def select(doc, row):
    """[(label, holder, key)] for every value `row` reads from one file."""
    found = [("", doc)]
    for seg in filter(None, row.path.split(".")):
        name, bracket, ids = seg.partition("[")
        ids = [f for f in ids.rstrip("]").split(",") if f]
        found = [(f"{label}.{alt}".lstrip("."), obj[alt])
                 for label, obj in found for alt in name.split("|")]
        if bracket:
            found = [(f"{label}[{','.join(f'{f}={el[f]}' for f in ids) if ids else i}]", el)
                     for label, items in found for i, el in enumerate(items)]
    points = []
    for label, obj in found:
        if keep(obj, row.where):
            for key in row.key.split("|"):
                if isinstance(obj[key], list):
                    points += [(f"{label}.{key}[{i}]", obj[key], i)
                               for i in range(len(obj[key]))]
                else:
                    points.append((f"{label}.{key}".lstrip("."), obj, key))
    return points


def comparisons(row, out, ref):
    """(points, errors): each point is a list of the comparisons it must pass."""
    points, errors = [], []
    for fname in (f"BENCH_{name}.json" for name in row.file.split()):
        try:
            if fname not in out or (row.test in ("drift", "band") and fname not in ref):
                errors.append(f"{fname}: {'output' if fname not in out else 'reference'} "
                              "missing or unreadable")
                continue
            got = select(out[fname], row)
            if not got:
                errors.append(f"{fname}: {row.path} selects nothing")
            if row.test in ("drift", "band"):
                refs = {label: (h, k) for label, h, k in select(ref[fname], row)}
                for label, h, k in got:
                    if label not in refs:
                        errors.append(f"{fname}: {label} has no reference point")
                        continue
                    rh, rk = refs.pop(label)
                    v, r = h[k], rh[rk]
                    text = f"{fname} {label} = {v:.4g}, {v / r:.2f}x the reference {r:.4g}"
                    # Written as bounds on the reference, which no other row reads.
                    pt = [Cmp(rh, rk, ">=", v / row.bound, text, (h, k))]
                    if row.test == "band":
                        pt.append(Cmp(rh, rk, "<=", v * row.bound, text, (h, k)))
                    points.append(pt)
                errors += [f"{fname}: reference point {label} has no output" for label in refs]
            elif row.test == "paper":
                for label, h, k in got:
                    m, p = h[k], h["paper_at_8"]
                    text = f"{fname} {label} = {m:.3g}, {abs(m - p) / p:.1%} off the paper's {p:.3g}"
                    points.append([Cmp(h, "paper_at_8", ">=", m / (1 + row.bound), text, (h, k)),
                                   Cmp(h, "paper_at_8", "<=", m / (1 - row.bound), text, (h, k))])
            elif row.test == "order":
                field = row.path.rsplit("[", 1)[1].rstrip("]")
                entry = {h[field]: h for _, h, _ in got}
                chain = re.split(r" (>=|>) ", row.bound)
                for a, op, b in zip(chain[0::2], chain[1::2], chain[2::2]):
                    va, vb = entry[a][row.key], entry[b][row.key]
                    text = f"{fname} {a} {va:.3g} is not {op} {b} {vb:.3g}"
                    # Moving an entry with its paper number changes only its rank.
                    points.append([Cmp(entry[a], row.key, op, vb, text, (entry[b], row.key),
                                       ((entry[a], "paper_at_8"),))])
            else:
                for label, h, k in got:
                    text = f"{fname} {label} = {h[k]}, bound {row.test} {row.bound}"
                    if row.test != "true" and not isinstance(h[k], (int, float)):
                        raise TypeError(f"{label} is not a number")
                    ops = [">=", "<="] if row.test == "==" else [row.test]
                    points.append([Cmp(h, k, op, row.bound, text) for op in ops])
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
            errors.append(f"{fname}: missing or malformed ({e!r})")
    return points, errors


def verdict(row, out, ref):
    """The row's failures on one output set; empty when the row passes."""
    points, errors = comparisons(row, out, ref)
    failed = [c.text for pt in points for c in pt if not OPS[c.op](c.holder[c.key], c.limit)]
    return errors + list(dict.fromkeys(failed))


def describe(row):
    files = row.file.split()
    name = files[0] + (f" (+{len(files) - 1} more)" if len(files) > 1 else "")
    where = f" where {row.where}" if row.where else ""
    bound = "" if row.bound is None else f" {row.bound}"
    return f"{' '.join(filter(None, (name, row.path, row.key)))}{where}: {row.test}{bound} — {row.why}"


def load(directory):
    docs = {}
    for path in glob.glob(os.path.join(directory, "BENCH_*.json")):
        try:
            with open(path) as f:
                docs[os.path.basename(path)] = json.load(f)
        except ValueError:
            pass  # reported as missing or unreadable
    return docs


def quantity(row, c):
    """What the row's bound limits, read at c's current values."""
    value = c.holder[c.key]
    if c.other is None:
        return value
    other = c.other[0][c.other[1]]
    if row.test == "paper":
        return abs(other - value) / value
    return max(value / other, other / value)


def plant(c, which):
    """Move c's value to its last passing (0) or first failing (1) value."""
    old = c.holder[c.key]
    c.holder[c.key] = EDGE[c.op](c.limit)[which]
    for holder, key in c.also:
        holder[key] *= c.holder[c.key] / old


def selftest():
    base = load(REPO)

    def fresh():
        return copy.deepcopy(base), copy.deepcopy(base)

    before = [bool(verdict(row, *fresh())) for row in ROWS]
    bad = 0
    for i, row in enumerate(ROWS):
        points, _ = comparisons(row, *fresh())
        sides = 2 if row.test in ("band", "paper", "==") else 1
        problems = [] if points and all(len(pt) == sides for pt in points) else [
            f"finds no {sides}-sided points in the committed files"]
        for side in range(sides if not problems else 0):
            out, ref = fresh()

            def side_cmps():
                return [pt[side] for pt in comparisons(row, out, ref)[0]]

            for j in reversed(range(len(points))):  # the tail first: a chain's links
                plant(side_cmps()[j], 0)             # read the entries after them
            want = {"order": 1.0, "true": True}.get(row.test, row.bound)
            off = [q for q in (quantity(row, c) for c in side_cmps())
                   if not math.isclose(q, want, rel_tol=1e-9, abs_tol=1e-300)]
            if off:
                problems.append(f"planted on the bound, it reads {off[0]}, not {want}")
            on = [bool(verdict(r, out, ref)) for r in ROWS]
            plant(side_cmps()[0], 1)
            past = [bool(verdict(r, out, ref)) for r in ROWS]
            for where, now, fails in (("on", on, False), ("past", past, True)):
                moved = [k for k in range(len(ROWS)) if now[k] != (fails if k == i else before[k])]
                if moved:
                    problems.append(f"{where} the bound ({side_cmps()[0].op}), rows {moved} move")
        if not problems:
            out, ref = fresh()
            out.pop(f"BENCH_{row.file.split()[0]}.json")
            if not verdict(row, out, ref):
                problems.append("passes with its output file missing")
            out, ref = fresh()
            c = comparisons(row, out, ref)[0][0][0]
            del c.holder[c.key]
            if not verdict(row, out, ref):
                problems.append("passes with a value it reads missing")
        bad += bool(problems)
        print(f"{'BAD' if problems else 'ok '}  {describe(row)}")
        for p in problems:
            print(f"       {p}")
    for row, failed in zip(ROWS, before):
        if failed:
            print(f"note: the committed files fail {describe(row)}")
    print(f"self-test: {len(ROWS) - bad} of {len(ROWS)} rows behave")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default=os.path.join(REPO, "build"),
                    help="CMake build directory holding bench/ (default: build)")
    ap.add_argument("--out", help="output directory (default: BUILD/bench-out)")
    ap.add_argument("--selftest", action="store_true",
                    help="check the rows on the committed files; runs no bench")
    args = ap.parse_args()
    if args.selftest:
        return selftest()

    build = os.path.abspath(args.build)
    out = os.path.abspath(args.out or os.path.join(build, "bench-out"))
    if out == REPO:
        sys.exit("guard.py: the output directory must not be the one holding the references")
    os.makedirs(out, exist_ok=True)
    for stale in glob.glob(os.path.join(out, "BENCH_*.json")):
        os.remove(stale)
    failed = []
    for cmd in SMOKE:
        print(f"==> {' '.join(cmd)}", flush=True)
        try:
            rc = subprocess.run([os.path.join(build, "bench", cmd[0]), *cmd[1:]], cwd=out).returncode
        except OSError as e:
            rc = e
        if rc != 0:
            failed.append(f"{' '.join(cmd)}: {rc if isinstance(rc, OSError) else f'exit {rc}'}")

    current, refs = load(out), load(REPO)
    print(f"\n==== bench guard: {out} against the references in {REPO} ====")
    for f in failed:
        print(f"FAIL  bench {f}")
    bad = len(failed)
    for row in ROWS:
        failures = verdict(row, current, refs)
        bad += bool(failures)
        print(f"{'FAIL' if failures else 'ok  '}  {describe(row)}")
        for f in failures:
            print(f"        {f}")
    print(f"bench guard: {bad} failed ({len(failed)} benches, {bad - len(failed)} of {len(ROWS)} rows)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
