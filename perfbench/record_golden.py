"""Write golden/<name>.txt, the stdout of each solve command that is
checked byte for byte.  Run once from the root of a checkout at the commit
whose output is the reference:

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    cli, cmds = run.setup(Path.cwd(), "solve", 0)
    workloads.GOLDEN.mkdir(exist_ok=True)
    for cmd in cmds:
        code, out = run.run_command(cli, cmd.argv)
        if code == 0:
            (workloads.GOLDEN / f"{cmd.name}.txt").write_text(
                out, encoding="utf-8")
            print(f"recorded {cmd.name} ({len(out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
