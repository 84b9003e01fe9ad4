#!/usr/bin/env python3
"""Pass a bench harness's stdout through and check its result lines.

Fails unless there is at least one `stamp:` and one `row:` line and every such
line is a strict JSON object with its keys (bench/common.h's Rows): `nproc` an
integer, `knobs` an object of strings, a row's `value` a number or null, every
other key a string. Usage, with pipefail so the harness's own failure shows:
  set -o pipefail; ./build/bench/serve_loadgen | python3 ci/check_rows.py
"""
import json
import sys

KEYS = {"stamp": {"bench", "nproc", "simd_tier", "build_type", "compiler", "knobs"},
        "row": {"bench", "config", "metric", "unit", "value"}}
TYPES = {"nproc": lambda v: type(v) is int,
         "value": lambda v: v is None or type(v) in (int, float),
         "knobs": lambda v: type(v) is dict and all(type(s) is str for s in v.values())}


def not_json(name):
    raise ValueError(f"{name} is not JSON")


counts, errors = {"stamp": 0, "row": 0}, []
for n, line in enumerate(sys.stdin, 1):
    sys.stdout.write(line)
    kind, sep, body = line.partition(": ")
    if kind in KEYS and sep:
        counts[kind] += 1
        try:
            obj = json.loads(body, parse_constant=not_json)
            if not isinstance(obj, dict) or KEYS[kind] - obj.keys():
                raise ValueError(f"needs keys {sorted(KEYS[kind])}")
            bad = [k for k in sorted(KEYS[kind])
                   if not TYPES.get(k, lambda v: type(v) is str)(obj[k])]
            if bad:
                raise ValueError(f"wrong type for {bad}")
        except ValueError as e:
            errors.append(f"line {n}: {e}: {line.rstrip()}")
errors += [f"no {kind}: line" for kind, c in counts.items() if c == 0]
for e in errors:
    print(f"check_rows: {e}", file=sys.stderr)
sys.exit(1 if errors else 0)
