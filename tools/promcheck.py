#!/usr/bin/env python3
"""Validate edb-served Prometheus text expositions (METRICS op).

Checks one scrape file, or two scrapes of the same daemon taken in
order, against the exposition-format contract the CI served-smoke job
relies on:

  * every sample belongs to a family that announced `# HELP` and
    `# TYPE` before its first sample, with a known type
    (counter / gauge / histogram);
  * no duplicate series: a (name, labels) identity appears at most
    once per scrape;
  * histogram families are internally consistent: `_bucket` values
    are cumulative (non-decreasing in `le`), the `+Inf` bucket equals
    `_count`, and `_sum`/`_count` are present;
  * with two files, every counter series present in both scrapes is
    monotone (scrape 2 >= scrape 1) — a counter that went backwards
    means the registry or the exposition writer lost state.

An exposition that only announces the disabled marker (EDB_OBS=OFF
builds emit a single comment line) passes vacuously — the wire
contract is "empty but valid", not "nonempty".

Usage: promcheck.py SCRAPE1 [SCRAPE2]
Exits 1 on any violation, 0 otherwise.
"""

import re
import sys

SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r'\s+(?P<value>\S+)\s*$')
LABEL_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>[^"]*)"$')
KNOWN_TYPES = {"counter", "gauge", "histogram"}
HIST_SUFFIXES = ("_bucket", "_sum", "_count")

failures = []


def fail(msg):
    failures.append(msg)
    print(f"PROMCHECK FAIL: {msg}")


def parse_labels(raw, where):
    """'a="x",b="y"' -> ((key, val), ...) sorted; None on a bad pair."""
    if not raw:
        return ()
    pairs = []
    for part in raw.split(","):
        m = LABEL_RE.match(part.strip())
        if m is None:
            fail(f"{where}: unparseable label pair {part!r}")
            return None
        pairs.append((m.group("key"), m.group("val")))
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        fail(f"{where}: duplicate label key in {{{raw}}}")
        return None
    return tuple(sorted(pairs))


def family_of(name, types):
    """Resolve a sample name to its announced family: histogram
    samples carry _bucket/_sum/_count suffixes on the family name."""
    if name in types:
        return name
    for suffix in HIST_SUFFIXES:
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return None


def parse_scrape(path):
    """Parse one exposition; run the single-file checks.

    Returns (series, types): series maps (name, labels) -> float,
    types maps family -> announced type.
    """
    helps = {}
    types = {}
    series = {}
    hist_rows = {}  # family -> list of (labels-minus-le, le, value)
    n = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            where = f"{path}:{lineno}"
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("# HELP "):
                parts = line.split(None, 3)
                if len(parts) < 4:
                    fail(f"{where}: HELP line without text")
                    continue
                helps[parts[2]] = parts[3]
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4:
                    fail(f"{where}: malformed TYPE line {line!r}")
                    continue
                if parts[3] not in KNOWN_TYPES:
                    fail(f"{where}: unknown type {parts[3]!r} "
                         f"for family {parts[2]}")
                types[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue  # free-form comment (the OFF-build marker)
            m = SAMPLE_RE.match(line)
            if m is None:
                fail(f"{where}: unparseable sample line {line!r}")
                continue
            n += 1
            name = m.group("name")
            labels = parse_labels(m.group("labels") or "", where)
            if labels is None:
                continue
            try:
                value = float(m.group("value"))
            except ValueError:
                fail(f"{where}: non-numeric value {m.group('value')!r}")
                continue
            family = family_of(name, types)
            if family is None:
                fail(f"{where}: sample {name} has no preceding "
                     f"# TYPE for its family")
            elif family not in helps:
                fail(f"{where}: family {family} has # TYPE "
                     f"but no # HELP")
            key = (name, labels)
            if key in series:
                fail(f"{where}: duplicate series {name}"
                     f"{dict(labels) if labels else ''}")
            series[key] = value
            if family is not None and name == family + "_bucket":
                le = dict(labels).get("le")
                if le is None:
                    fail(f"{where}: _bucket sample without an "
                         f"le label")
                else:
                    rest = tuple(p for p in labels if p[0] != "le")
                    hist_rows.setdefault((family, rest), []).append(
                        (le, value, where))

    check_histograms(hist_rows, series)
    print(f"{path}: {n} sample(s), {len(types)} family(ies)")
    return series, types


def check_histograms(hist_rows, series):
    for (family, rest), rows in hist_rows.items():
        def bound(le):
            return float("inf") if le == "+Inf" else float(le)
        rows.sort(key=lambda r: bound(r[0]))
        prev = -1.0
        for le, value, where in rows:
            if value < prev:
                fail(f"{where}: {family}_bucket le={le} value "
                     f"{value} below the previous cumulative bucket "
                     f"{prev}")
            prev = value
        if rows[-1][0] != "+Inf":
            fail(f"{rows[-1][2]}: {family} histogram is missing its "
                 f"le=\"+Inf\" bucket")
            continue
        for suffix in ("_sum", "_count"):
            if (family + suffix, rest) not in series:
                fail(f"{family}: histogram series missing "
                     f"{family}{suffix}")
        count = series.get((family + "_count", rest))
        if count is not None and rows[-1][1] != count:
            fail(f"{rows[-1][2]}: {family} +Inf bucket {rows[-1][1]} "
                 f"!= _count {count}")


def check_monotone(old, new, old_types, new_types):
    """Counter series present in both scrapes must not go backwards."""
    checked = 0
    for key, new_value in new.items():
        name, labels = key
        family = family_of(name, new_types)
        # Histogram _bucket/_count/_sum are cumulative too.
        kind = new_types.get(family)
        if kind == "gauge" or kind is None:
            continue
        if family_of(name, old_types) != family:
            continue  # family changed type between scrapes? skip
        if key not in old:
            continue  # series born between scrapes: fine
        checked += 1
        if new_value < old[key]:
            fail(f"counter {name}{dict(labels) if labels else ''} "
                 f"went backwards: {old[key]} -> {new_value}")
    print(f"monotonicity: {checked} cumulative series compared")


def main():
    argv = sys.argv[1:]
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__.strip().splitlines()[-2].strip())
    old, old_types = parse_scrape(argv[0])
    if len(argv) == 2:
        new, new_types = parse_scrape(argv[1])
        check_monotone(old, new, old_types, new_types)
    if failures:
        print(f"promcheck: {len(failures)} violation(s)")
        return 1
    print("promcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
