#!/usr/bin/env python3
"""Join tests/tsan_filter.txt into one gtest filter, or check it.

    python3 tests/tsan_filter.py
        prints the --gtest_filter value: the positive patterns joined by
        ':', then '-' and the excluded test names joined by ':'.

    python3 tests/tsan_filter.py --check path/to/wlp_tests
        lists the binary's tests (--gtest_list_tests) and exits 1, naming
        each offender, when a positive pattern or an excluded name matches
        no test.  A suite renamed or deleted then fails the check instead
        of silently dropping out of the sanitizer run.
"""
import argparse
import pathlib
import re
import subprocess
import sys

FILTER_FILE = pathlib.Path(__file__).with_name("tsan_filter.txt")


def read_filter(path=FILTER_FILE):
    """(positive patterns, excluded names) from the filter file."""
    positive, excluded = [], []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("-"):
            excluded.append(line[1:])
        else:
            positive.append(line)
    return positive, excluded


def gtest_filter(positive, excluded):
    joined = ":".join(positive)
    return joined + (":-" + ":".join(excluded) if excluded else "")


def list_tests(binary):
    """Full test names (Prefix/Suite.Test/suffix) the binary would run."""
    out = subprocess.run([binary, "--gtest_list_tests"], check=True,
                         capture_output=True, text=True).stdout
    names, suite = [], ""
    for line in out.splitlines():
        if not line.strip():
            continue
        if line.startswith(" "):
            names.append(suite + line.split()[0])
        else:
            suite = line.split()[0]  # "Suite." with its trailing dot
    return names


def matches(pattern, name):
    """gtest's wildcard match: '*' any string, '?' any one character."""
    rx = "".join(".*" if c == "*" else "." if c == "?" else re.escape(c)
                 for c in pattern)
    return re.fullmatch(rx, name) is not None


def check(binary):
    positive, excluded = read_filter()
    names = list_tests(binary)
    dead = [("pattern", p) for p in positive
            if not any(matches(p, n) for n in names)]
    dead += [("excluded test", e) for e in excluded
             if not any(matches(e, n) for n in names)]
    for kind, entry in dead:
        print(f"{FILTER_FILE.name}: {kind} '{entry}' matches no test in "
              f"{binary} --gtest_list_tests")
    if dead:
        return 1
    selected = [n for n in names
                if any(matches(p, n) for p in positive)
                and not any(matches(e, n) for e in excluded)]
    print(f"{FILTER_FILE.name}: {len(positive)} patterns and {len(excluded)} "
          f"exclusions all match; {len(selected)} of {len(names)} tests "
          f"selected")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", metavar="WLP_TESTS",
                    help="check every entry against this test binary")
    args = ap.parse_args()
    if args.check:
        return check(args.check)
    print(gtest_filter(*read_filter()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
