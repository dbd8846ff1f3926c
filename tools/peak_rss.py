"""Run one divcurl command in a child process and fail when its peak
resident set size exceeds a bound in MB.  The child's exit status is
checked first; the peak is the child's ru_maxrss.  Run from the
repository root, for example:

    PYTHONPATH=src python tools/peak_rss.py 150 laplacian 3 4 1 --q 7 --out q7.json
"""

import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 2:
        return "usage: peak_rss.py BOUND_MB DIVCURL_ARG..."
    bound = float(argv[0])
    subprocess.run([sys.executable, "-m", "divcurl", *argv[1:]], check=True)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB")
    if peak_mb > bound:
        return f"peak RSS above {argv[0]} MB"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
