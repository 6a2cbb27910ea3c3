#!/usr/bin/env python3
"""Print the full criterion trace, stats, and certificates of the worked
three-generator ideal, matching ``siggb tests/data/golden.ideal
--engine both --trace-criteria --stats --certify --improved-scan``.  The
ideal is found from this script's own location, so it runs from any
directory."""

import os
import sys

from siggb.cli import build_parser, run

GOLDEN_IDEAL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "tests", "data", "golden.ideal")


def main(out=sys.stdout, err=sys.stderr) -> int:
    args = build_parser().parse_args(
        [
            GOLDEN_IDEAL,
            "--engine",
            "both",
            "--trace-criteria",
            "--stats",
            "--certify",
            "--improved-scan",
        ]
    )
    return run(args, out=out, err=err)


if __name__ == "__main__":
    sys.exit(main())
