#!/usr/bin/env python3
"""Keep the Transport seam from growing back.

Code in src/comm and src/serve is written against comm::Transport and
comm::RankContext. Fails (exit 1, one line per finding) if a file there names
a sim:: type, except SimTransport's binding to sim::Network in
comm/transport.h, or if a header under src/comm includes sim/cluster.h (the
cluster launcher). Registered as a ctest; to run it by hand:
  python3 ci/check_seam.py [repo-root]
"""
import pathlib
import re
import sys

root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent / "..")
BINDING = ("src/comm/transport.h", "sim::Network")
INCLUDE = re.compile(r'^\s*#\s*include\s+"sim/cluster\.h"')

findings = []
for top in ("src/comm", "src/serve"):
    for path in sorted((root / top).rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        for n, line in enumerate(path.read_text().splitlines(), 1):
            names = [m for m in re.findall(r"\bsim::\w+", line) if (rel, m) != BINDING]
            if names:
                findings.append(f"{rel}:{n}: names {', '.join(names)} above the seam")
            if rel.startswith("src/comm/") and path.suffix == ".h" and INCLUDE.match(line):
                findings.append(f"{rel}:{n}: includes sim/cluster.h")

print("\n".join(findings) if findings else "seam check: ok")
sys.exit(1 if findings else 0)
