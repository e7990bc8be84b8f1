"""What a command-line user pays before the first trial, in a fresh
process: import sppm, parse the config, build the problem (the instance
generator with its ground-truth solve) and derive the schedule, the
same steps `sppm derive` takes.  Prints one JSON line of phase times.

    python3 perfbench/setup_probe.py <src-dir> <config-text>
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from workloads import steal_s  # noqa: E402


def main() -> int:
    src, text = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    s0, t0 = steal_s(), time.perf_counter()
    import sppm
    from sppm.harness import build_problem, build_schedule

    t1 = time.perf_counter()
    cfg = sppm.parse_config(text)
    t2 = time.perf_counter()
    problem = build_problem(cfg)
    t3 = time.perf_counter()
    schedule = build_schedule(cfg, problem)
    t4, s4 = time.perf_counter(), steal_s()
    print(json.dumps({
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "generate_s": t3 - t2,
        "derive_s": t4 - t3,
        "setup_s": t4 - t0 - (s4 - s0),
        "steal_s": s4 - s0,
        "startup_s": t0 - _T0,
        "rge_batch": schedule.rge_batch,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
