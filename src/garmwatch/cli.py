"""Command-line interface.

Four subcommands: ``detect`` runs the pipeline over a frame sequence and
writes detections JSONL plus a run manifest; ``eval`` scores detections
against ground truth and prints a counts summary; ``curve`` sweeps the IoU
threshold and writes a tau,precision,recall CSV; ``synth`` renders a
synthetic scene from a spec file.

``detect`` writes each frame's detections line as the frame is processed,
into ``<out>.part``, and renames that file onto ``--out`` after the last
frame; a failed run removes the part file and leaves any earlier ``--out``
and manifest as they were.  The manifest's ``config`` holds the run's
config as the flat ``key = value`` pairs that ``--config`` reads.

Exit statuses: 0 success, 1 input or data error, 2 configuration error.
The pipeline config comes from --config, else from the GW_CONFIG
environment variable, else built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import frameio, metrics, pipeline, synth
from .colorseg import DISPLAY_COLORS
from .config import PipelineConfig, read_flat_file
from .errors import ConfigError, GarmwatchError, ValidationError
from .frameio import Detection, Frame


def _load_config(path: str | None) -> tuple[PipelineConfig, str | None]:
    path = path or os.environ.get("GW_CONFIG")
    if path:
        return PipelineConfig.from_file(path), path
    return PipelineConfig(), None


def _open_frames(path: str):
    if os.path.isdir(path):
        return frameio.read_frame_sequence(path)
    return frameio.read_raw_stream(path)


def _draw_box(pixels: np.ndarray, box, color, thickness: int = 2) -> None:
    h, w = pixels.shape[:2]
    x1, y1 = max(box.x, 0), max(box.y, 0)
    x2, y2 = min(box.x2, w), min(box.y2, h)
    if x1 >= x2 or y1 >= y2:
        return
    t = thickness
    pixels[y1:min(y1 + t, y2), x1:x2] = color
    pixels[max(y2 - t, y1):y2, x1:x2] = color
    pixels[y1:y2, x1:min(x1 + t, x2)] = color
    pixels[y1:y2, max(x2 - t, x1):x2] = color


def _overlay_frame(frame: Frame, detections: list[Detection]) -> Frame:
    pixels = frame.pixels.copy()
    for det in detections:
        color = DISPLAY_COLORS.get(det.color, (255, 255, 255))
        _draw_box(pixels, det.box, color)
    return Frame(frame.index, pixels)


def _parse_taus(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--taus must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--taus must be numeric, got {text!r}") from None
    if step <= 0:
        raise ValidationError(f"--taus step must be > 0, got {step}")
    taus = []
    i = 0
    while True:
        tau = round(start + i * step, 10)
        if tau > stop + 1e-9:
            break
        taus.append(tau)
        i += 1
    if not taus:
        raise ValidationError(f"--taus {text!r} produces no thresholds")
    return taus


def cmd_detect(args) -> int:
    config, config_path = _load_config(args.config)
    persons = frameio.read_person_boxes(args.persons) if args.persons else None
    if args.overlay:
        os.makedirs(args.overlay, exist_ok=True)

    start = time.monotonic()
    nframes = 0
    part = args.out + ".part"
    try:
        with open(part, "w", encoding="utf-8") as f:
            for frame, dets in pipeline.iter_sequence(_open_frames(args.frames),
                                                      persons, config):
                frameio.write_detections(dets, f)
                nframes += 1
                if args.overlay:
                    frameio.write_ppm(_overlay_frame(frame, dets),
                                      os.path.join(args.overlay,
                                                   frameio.frame_filename(frame.index)))
        os.replace(part, args.out)
    finally:
        if os.path.exists(part):
            os.remove(part)

    manifest = {
        "config": config.to_mapping(),
        "inputs": {"frames": args.frames, "persons": args.persons,
                   "config": config_path},
        "outputs": {"detections": args.out, "overlay": args.overlay},
        "frames_processed": nframes,
        "duration_seconds": time.monotonic() - start,
    }
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return 0


def cmd_eval(args) -> int:
    detections = frameio.read_detections(args.det)
    annotations = frameio.read_annotations(args.gt)
    report = metrics.evaluate(detections, annotations, args.tau)
    print(metrics.format_summary(report))
    return 0


def cmd_curve(args) -> int:
    detections = frameio.read_detections(args.det)
    annotations = frameio.read_annotations(args.gt)
    taus = _parse_taus(args.taus) if args.taus else list(metrics.DEFAULT_TAUS)
    rows = metrics.pr_curve(detections, annotations, taus)
    csv = metrics.format_curve_csv(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def cmd_synth(args) -> int:
    spec = synth.scene_from_mapping(read_flat_file(args.scene))
    synth.generate(spec, args.out_frames, args.out_gt, args.out_persons)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garmwatch",
        description="Garment-of-interest detection in surveillance frame sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run the detection pipeline over frames")
    p.add_argument("--frames", required=True,
                   help="PPM sequence directory or GWVS1 stream file")
    p.add_argument("--config", help="pipeline config file (else $GW_CONFIG, else defaults)")
    p.add_argument("--out", required=True, help="output detections JSONL path")
    p.add_argument("--persons", help="person boxes sidecar JSONL")
    p.add_argument("--overlay", help="directory for frames with drawn detection boxes")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--det", required=True, help="detections JSONL")
    p.add_argument("--gt", required=True, help="ground-truth JSONL")
    p.add_argument("--tau", type=float, default=0.55, help="IoU threshold (default 0.55)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("curve", help="precision/recall versus IoU threshold")
    p.add_argument("--det", required=True, help="detections JSONL")
    p.add_argument("--gt", required=True, help="ground-truth JSONL")
    p.add_argument("--taus", help="threshold sweep start:stop:step "
                                  "(default 0.05:0.95:0.05)")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("synth", help="render a synthetic scene with ground truth")
    p.add_argument("--scene", required=True, help="scene spec file")
    p.add_argument("--out-frames", required=True, help="output PPM sequence directory")
    p.add_argument("--out-gt", required=True, help="output ground-truth JSONL path")
    p.add_argument("--out-persons", help="output person sidecar JSONL path")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (GarmwatchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
