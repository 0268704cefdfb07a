"""Runs one ``garmwatch detect`` call in process, in a process of its own.

Usage: python3 worker.py JOB.json RESULT.json

Each call gets a fresh process, as each ``garmwatch detect`` a user runs
does, so no call inherits warm allocator state or caches from another.
The job names the inputs, the output file, the warmup length and whether
to trace.  Each frame is stamped with one clock read where ``cli``
receives it from ``pipeline.iter_sequence``.  The result holds the exit
status, wall time, frame latencies, detections sha256, the foreground
share of the first active frame and this process's peak RSS; a traced
call adds its spans and the model's component counts.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import program
import spans


def stamp_frames(pipeline, latencies: list) -> None:
    """Record (frame index, seconds since the previous frame) per frame."""
    iter_sequence = pipeline.iter_sequence

    def stamped(*args, **kwargs):
        last = perf_counter()
        for item in iter_sequence(*args, **kwargs):
            now = perf_counter()
            latencies.append((item[0].index, now - last))
            last = now
            yield item

    pipeline.iter_sequence = stamped


def probe_first_active(bgsub, warmup: int, seen: list) -> None:
    """Record the foreground share the model reports for frame `warmup`."""
    update = bgsub.BackgroundModel.update

    def probed(model, frame):
        mask = update(model, frame)
        if frame.index == warmup:
            seen.append(float(mask.mean()))
        return mask

    bgsub.BackgroundModel.update = probed


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    program.load()
    from garmwatch import bgsub, cli, pipeline

    latencies: list = []
    first_active_fg: list = []
    stamp_frames(pipeline, latencies)
    probe_first_active(bgsub, job["warmup"], first_active_fg)
    tracer = spans.Tracer()
    if job["traced"]:
        spans.trace_detect(tracer)

    out = Path(job["out"])
    call = {"traced": job["traced"], "out": str(out), "error": None}
    start = perf_counter()
    try:
        call["status"] = cli.main(["detect", "--frames", job["frames"], "--out", str(out),
                                   "--config", job["config"], "--persons", job["persons"]])
    except Exception:
        call["status"], call["error"] = None, traceback.format_exc()
    call["wall_s"] = perf_counter() - start
    call["latencies"] = latencies
    call["first_active_fg"] = first_active_fg[0] if first_active_fg else None
    call["sha256"] = (hashlib.sha256(out.read_bytes()).hexdigest()
                      if call["status"] == 0 else None)
    call["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if job["traced"] and call["status"] == 0:
        call["spans"] = tracer.spans
        call["ncomp"] = (float(tracer.model.ncomp.mean()), int(tracer.model.ncomp.max()))
    Path(result_path).write_text(json.dumps(call))


if __name__ == "__main__":
    main(*sys.argv[1:])
