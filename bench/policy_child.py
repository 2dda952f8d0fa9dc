"""Line-protocol policy process that wraps a built-in scripted policy.

Usage: python3 policy_child.py <scripted policy name> <n_rays>

Prints ``HELLO <n_rays + 3> 2``, then answers each state line with the
policy's action. Floats travel as ``repr`` text, which round-trips exactly, so
a search through this child matches the in-process ``scripted:`` run byte for
byte.
"""

import sys

import numpy as np

from lidar_cfe.cli import load_model
from lidar_cfe.scan import ModelState


def main(argv: list[str]) -> int:
    kind, n_rays = argv[0], int(argv[1])
    policy = load_model(f"scripted:{kind}", n_rays + 3, 2)
    out = sys.stdout
    out.write(f"HELLO {policy.input_size} {policy.output_size}\n")
    out.flush()
    for line in sys.stdin:
        state = ModelState(np.array([float(v) for v in line.split()]))
        out.write(" ".join(repr(float(v)) for v in policy.act(state).values) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
