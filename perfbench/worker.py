"""One unit of a workload, in a fresh process (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace]

Prints one JSON line: the monotonic clock reading when set-up ended
(`ready`) and the speed-probe pause before it, the measured wall and CPU
seconds with the probe's scale factor (see speed.py), peak RSS, the correctness
failures, the SHA-256 digest of the output files and, with --trace, the
per-layer span summary; the spans themselves go to DIR/spans.json.  DIR is
relative to the repository root, which is the working directory.  Set-up is
everything before `ready`: interpreter start, `import berncomp`, config
parse and input generation.
"""

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(out: Path, paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from speed import SpeedProbe
    probe = SpeedProbe()
    probe.start()
    import workloads  # imports berncomp

    out = Path(args.out)
    unit = workloads.make_unit(args.workload, args.seed, out)
    ready = time.monotonic()
    paused_at_ready = probe.paused

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(clock=probe.now)
    cpu0 = time.process_time() - probe.paused
    wall0 = probe.now()
    with tracer or contextlib.nullcontext():
        unit.run(echo=lambda line: None)
    wall = probe.now() - wall0
    cpu = time.process_time() - probe.paused - cpu0
    probe.stop()

    result = {
        "ready": ready,
        "paused_at_ready": paused_at_ready,
        "scale": probe.scale(),
        "bursts": len(probe.bursts),
        "wall_s": wall,
        "cpu_s": cpu,
        "failures": unit.check(),
        "digest": digest(out, unit.output_files()),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracing import summarize
        result["trace"] = summarize(tracer.spans, wall)
        with open(out / "spans.json", "w") as fh:
            json.dump({"fields": ["layer", "parent", "start", "end", "attrs"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
