"""Time and minor page faults of each background update inside ``garmwatch detect``.

Renders a rack-like synthetic scene (three drifting garments on noisy gray,
after a pure-background warmup) to a temporary GWVS1 stream in a process of
its own, so that this process holds no rendered frame, then runs
``cli.main(["detect", ...])`` in process with ``BackgroundModel.update``
wrapped, as a benchmark worker runs one call.

    PYTHONPATH=src python tests/check_update_faults.py [--size 944x576] [--seed 1]

Prints the median milliseconds and minor faults (``ru_minflt`` of the whole
process, so the strip threads' faults count) per warmup update and per
active update.  Pytest does not collect this file.
"""

import argparse
import multiprocessing
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from garmwatch import bgsub, cli, frameio, synth

WARMUP, ACTIVE = 60, 100


def render(width: int, height: int, seed: int, path: str) -> None:
    """Write the scene's frames to path as a GWVS1 stream."""
    side = max(1, round(36 * width / 320))
    lane = height // 3
    objects = [synth.SceneObject(color=color, size=(side, side),
                                 start=(width // 16, i * lane + (lane - side) // 2),
                                 velocity=(1, 0))
               for i, color in enumerate(((220, 30, 30), (30, 200, 30), (40, 40, 230)))]
    spec = synth.SceneSpec(width, height, ACTIVE, background=(96, 96, 96), objects=objects,
                           noise_sigma=8.0, seed=seed)
    rows = synth.generate_frames(synth.warmup_prefix(spec, WARMUP))
    frameio.write_raw_stream((frame for frame, _, _ in rows), path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", default="320x240", help="WIDTHxHEIGHT (default 320x240)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    width, height = (int(v) for v in args.size.split("x"))

    with tempfile.TemporaryDirectory() as tmp:
        frames, config = Path(tmp, "frames.gwvs1"), Path(tmp, "pipeline.cfg")
        child = multiprocessing.get_context("spawn").Process(
            target=render, args=(width, height, args.seed, str(frames)))
        child.start()
        child.join()
        if child.exitcode != 0:
            print(f"rendering failed with exit code {child.exitcode}", file=sys.stderr)
            return 1
        config.write_text(f"warmup_frames = {WARMUP}\n")

        samples = {"warmup": [], "active": []}
        update = bgsub.BackgroundModel.update

        def measured(model, frame):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            mask = update(model, frame)
            ms = (time.perf_counter() - start) * 1e3
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            samples["warmup" if frame.index < WARMUP else "active"].append((ms, faults))
            return mask

        bgsub.BackgroundModel.update = measured
        try:
            status = cli.main(["detect", "--frames", str(frames), "--config", str(config),
                               "--out", str(Path(tmp, "det.jsonl"))])
        finally:
            bgsub.BackgroundModel.update = update
    if status != 0:
        return status
    print(f"{width}x{height}, seed {args.seed}")
    for kind, rows in samples.items():
        ms, faults = zip(*rows)
        print(f"{kind:>6}: {len(rows)} updates, median {statistics.median(ms):.2f} ms, "
              f"{statistics.median(faults):g} minor faults")
    return 0


if __name__ == "__main__":
    sys.exit(main())
