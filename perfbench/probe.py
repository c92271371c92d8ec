"""Set-up probe: run one workload's main call in a fresh interpreter and
print the monotonic clock reading at its first filter step.

``run.py`` starts this script, notes the clock before the start, and takes
the difference as the set-up time: interpreter start, imports, option,
scenario and config construction, up to the first sample.  Both sides read
``time.monotonic``, which is one system-wide clock on Linux.

    python3 perfbench/probe.py --workload sysid-mc --seed 20240923 --out DIR
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


class FirstSample(BaseException):
    """Raised at the first step; a BaseException so the CLI's error boundary lets it through."""


class _NoMeter:
    """Stands in for the speed meter: the probe must time set-up alone, without calibration snippets."""

    snippet_s = 0.0

    def sample(self):
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


def _hook(t_first: list):
    def first_step(*args, **kwargs):
        t_first.append(time.monotonic())
        raise FirstSample

    return first_step


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    w = workloads.SCALES[args.scale][args.workload]
    t_first: list[float] = []
    workloads.SpeedMeter = lambda kind, timer=True: _NoMeter()
    for module in (workloads.harness, workloads.filters):
        for attr in dir(module):
            if attr.endswith("_step") and callable(getattr(module, attr)):
                setattr(module, attr, _hook(t_first))
    try:
        w.main_call(args.seed, Path(args.out))
    except FirstSample:
        print(repr(t_first[0]))
        return 0
    print("probe: the main call finished without reaching a filter step", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
