"""Run five divcurl commands under PYTHONHASHSEED 1 and 2 and fail unless
each command's stdout is byte-identical across the two processes.  Run
from the repository root:

    PYTHONPATH=src python tools/determinism.py
"""

import os
import subprocess
import sys

COMMANDS = {
    "verify": ["verify", "--deep", "--cases",
               "2,2,2,lexicographic;3,2,1,diagonal"],
    "deep": ["verify", "--deep", "--seed", "1"],
    "ineq": ["ineq"],
    "symbol": ["symbol", "2", "3", "1", "--ordering", "chained", "--source"],
    "laplacian": ["laplacian", "3", "2", "2", "--q", "1", "--source"],
}


def main():
    outputs = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        for name, args in COMMANDS.items():
            outputs[name, seed] = subprocess.run(
                [sys.executable, "-m", "divcurl", *args], env=env,
                stdout=subprocess.PIPE, check=True).stdout
    differ = [name for name in COMMANDS
              if outputs[name, "1"] != outputs[name, "2"]]
    for name in COMMANDS:
        print(f"{name}: {'differs' if name in differ else 'identical'}")
    return f"output differs across processes: {differ}" if differ else 0


if __name__ == "__main__":
    sys.exit(main())
