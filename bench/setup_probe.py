"""The program's part of a workload's set-up, in a fresh interpreter.

``run.py`` times this script: import paircodes, then build what a batch
needs before its first operation.  The benchmark's own inputs are made in
the parent, so only the program's work is timed.

Usage: python3 bench/setup_probe.py cli
       python3 bench/setup_probe.py rings '[[p, m, n, s, alpha0, beta], ...]'
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if sys.argv[1] == "cli":
    from paircodes import cli
    cli.make_parser()
else:
    from paircodes import Field, QuotientRing
    for p, m, n, s, alpha0, beta in json.loads(sys.argv[2]):
        QuotientRing(Field(p, m), n, s, alpha0, beta)
