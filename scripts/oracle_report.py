#!/usr/bin/env python3
"""Run the full oracle verification suite with the bundled defaults.

Equivalent to `icl verify --config verify.cfg --out <dir>`; exits nonzero
if any check fails.  Takes about 0.7 s on a 2-core machine; the report
(`verify_report.txt` in the output directory) ends with the pass count.
"""

import argparse
import sys

from icl import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/verify", help="report directory")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    return cli.main(
        ["verify", "--config", "verify.cfg", "--out", args.out, "--seed", str(args.seed)]
    )


if __name__ == "__main__":
    sys.exit(main())
