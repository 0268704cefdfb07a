"""Synthetic scene generation with exact ground truth.

Scenes are solid or textured backgrounds with rectangles moving on
integer-velocity straight lines, optional additive Gaussian pixel noise,
and optional labeled person boxes.  The generator writes the rendered PPM
sequence next to a ground-truth JSONL whose boxes are exactly the painted
rectangles, so downstream detection quality is measured against the truth
rather than another estimate.  Everything is driven by one seeded PRNG;
a fixed seed reproduces the output byte for byte.

Objects may be striped: rows alternate between two colors in fixed-height
bands, which imitates multi-color garments that the paper pipeline splits
into per-color fragments.

Scene spec files use the flat ``key = value`` format of the config module
and are read by its helpers: the keys are the SceneSpec, SceneObject and
ScenePerson field names.  A spec is checked when it is rendered (each
number by errors.check_fields, a frame that fits in physical memory,
trajectories inside the frame in closed form) and what renders is the
checked spec, so specs built in Python get the same checks as spec files
and fail with a SceneError.  generate writes each frame as it renders.
"""

from __future__ import annotations

from contextlib import nullcontext
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .config import PARSERS, check_memory, parse_fields, split_keys
from .errors import SceneError, check_fields, check_number
from .frameio import (Annotation, BoundingBox, Frame, PersonBoxes,
                      write_annotations, write_frame_sequence, write_person_boxes)

TEXTURE = "texture"


class _Trajectory:
    """Straight-line motion shared by objects and persons."""

    def position(self, frame: int) -> tuple[int, int]:
        t = frame - self.appear
        return (self.start[0] + self.velocity[0] * t,
                self.start[1] + self.velocity[1] * t)

    def visible(self, frame: int, nframes: int) -> bool:
        end = nframes if self.disappear is None else self.disappear
        return self.appear <= frame < end


@dataclass(frozen=True)
class SceneObject(_Trajectory):
    """A rectangle on a straight-line trajectory, visible on [appear, disappear)."""

    color: tuple[int, int, int]
    size: tuple[int, int]
    start: tuple[int, int]
    velocity: tuple[int, int] = (0, 0)
    appear: int = 0
    disappear: int | None = None
    stripe_color: tuple[int, int, int] | None = None
    stripe_width: int = 4


@dataclass(frozen=True)
class ScenePerson(_Trajectory):
    """A labeled person box; rendered as a dark gray rectangle."""

    size: tuple[int, int]
    start: tuple[int, int]
    velocity: tuple[int, int] = (0, 0)
    appear: int = 0
    disappear: int | None = None


PERSON_FILL = (60, 50, 45)


@dataclass
class SceneSpec:
    width: int
    height: int
    nframes: int
    background: tuple[int, int, int] | str = (96, 96, 96)
    objects: list[SceneObject] = field(default_factory=list)
    persons: list[ScenePerson] = field(default_factory=list)
    noise_sigma: float = 0.0
    seed: int = 0


# (lo, hi) of the SceneSpec, SceneObject and ScenePerson fields with closed ranges
SCENE_RANGES = {"width": (1, None), "height": (1, None), "nframes": (0, None), "seed": (0, None),
                "noise_sigma": (0, None), "size": (1, None), "stripe_width": (1, None),
                "background": (0, 255), "color": (0, 255), "stripe_color": (0, 255)}


def _validate(spec: SceneSpec) -> SceneSpec:
    """spec rebuilt from its checked values, or a SceneError.  Motion is
    affine in t, so a box inside the frame on its first visible frame stays
    inside until a moving axis runs out of room."""
    textured = isinstance(spec.background, str)
    if textured and spec.background != TEXTURE:
        raise SceneError(f"background must be an RGB triple or {TEXTURE!r}")
    spec = replace(spec, **check_fields(spec, SCENE_RANGES, SceneError,
                                        skip=("background",) if textured else ()))
    check_memory(3 * spec.width * spec.height, f"one {spec.width}x{spec.height} frame", SceneError)
    kinds = {}
    for kind, cls, items in (("object", SceneObject, spec.objects),
                             ("person", ScenePerson, spec.persons)):
        if not isinstance(items, list):
            raise SceneError(f"{kind}s must be a list of {cls.__name__}, got {items!r}")
        for i, obj in enumerate(items, start=1):
            if not isinstance(obj, cls):
                raise SceneError(f"{kind} {i} must be a {cls.__name__}, got {obj!r}")
        kinds[kind] = [replace(obj, **check_fields(obj, SCENE_RANGES, SceneError, f"{kind} {i}: "))
                       for i, obj in enumerate(items, start=1)]
    for kind, items in kinds.items():
        for i, obj in enumerate(items, start=1):
            t = max(obj.appear, 0)
            end = spec.nframes if obj.disappear is None else min(obj.disappear, spec.nframes)
            rooms = (spec.width - obj.size[0], spec.height - obj.size[1])
            if t < end and all(0 <= p <= room for p, room in zip(obj.position(t), rooms)):
                t = min([end] + [obj.appear + ((room - s) if v > 0 else s) // abs(v) + 1
                                 for s, v, room in zip(obj.start, obj.velocity, rooms) if v])
            if t < end:
                x, y = obj.position(t)
                raise SceneError(f"{kind} {i} leaves the {spec.width}x{spec.height} frame "
                                 f"at frame {t} (box {x},{y},{obj.size[0]},{obj.size[1]})")
    return replace(spec, objects=kinds["object"], persons=kinds["person"])


def _paint(canvas: np.ndarray, obj: SceneObject | ScenePerson, frame: int) -> BoundingBox:
    x, y = obj.position(frame)
    w, h = obj.size
    if isinstance(obj, ScenePerson):
        canvas[y:y + h, x:x + w] = PERSON_FILL
    elif obj.stripe_color is None:
        canvas[y:y + h, x:x + w] = obj.color
    else:
        rows = np.arange(h)
        band = (rows // obj.stripe_width) % 2
        colors = np.where(band[:, None].astype(bool), obj.stripe_color, obj.color)
        canvas[y:y + h, x:x + w] = colors[:, None, :]
    return BoundingBox(x, y, w, h)


def generate_frames(spec: SceneSpec):
    """Yield (Frame, Annotation, PersonBoxes) per frame, deterministically.

    The spec is validated when called, before the first frame is drawn.
    The PRNG is consumed in a fixed order: background texture first (when
    requested), then one noise field per frame (when noise_sigma > 0).
    Persons paint beneath objects, so a garment whose box sits inside a
    person box stays visible -- the worn-garment case the person filter
    is there to discard.
    """
    return _frames(_validate(spec))


def _frames(spec: SceneSpec):
    rng = np.random.default_rng(spec.seed)
    if spec.background == TEXTURE:
        base = rng.integers(0, 256, size=(spec.height, spec.width, 3), dtype=np.uint8)
    else:
        base = np.empty((spec.height, spec.width, 3), dtype=np.uint8)
        base[:] = spec.background

    for t in range(spec.nframes):
        canvas = base.copy()
        person_boxes = []
        for person in spec.persons:
            if person.visible(t, spec.nframes):
                person_boxes.append(_paint(canvas, person, t))
        boxes = []
        for obj in spec.objects:
            if obj.visible(t, spec.nframes):
                boxes.append(_paint(canvas, obj, t))
        if spec.noise_sigma > 0:
            noise = rng.normal(0.0, spec.noise_sigma, size=canvas.shape)
            canvas = np.clip(np.rint(canvas + noise), 0, 255).astype(np.uint8)
        yield (Frame(t, canvas), Annotation(t, boxes), PersonBoxes(t, person_boxes))


def generate(spec: SceneSpec, out_dir, gt_path, persons_path=None) -> int:
    """Render the scene to disk, each frame's PPM, ground-truth and person
    lines as it renders, once the spec is valid; returns the frame count."""
    spec = _validate(spec)
    os.makedirs(out_dir, exist_ok=True)  # first, as it may make gt_path's directory
    with (open(gt_path, "w", encoding="utf-8") as gt,
          nullcontext() if persons_path is None
          else open(persons_path, "w", encoding="utf-8") as persons):

        def frames():
            for frame, annotation, person_boxes in _frames(spec):
                write_annotations([annotation], gt)
                if persons is not None:
                    write_person_boxes([person_boxes], persons)
                yield frame

        return write_frame_sequence(frames(), out_dir)


def warmup_prefix(spec: SceneSpec, warmup_frames: int) -> SceneSpec:
    """Delay every object and person by warmup_frames and extend the scene,
    leaving a pure-background prefix for the model to converge on."""
    warmup_frames = check_number(warmup_frames, "warmup_frames", SceneError, integer=True, lo=0)
    if warmup_frames == 0:
        return spec

    def shift(obj):
        return replace(obj, appear=obj.appear + warmup_frames,
                       disappear=None if obj.disappear is None
                       else obj.disappear + warmup_frames)

    return replace(spec, nframes=spec.nframes + warmup_frames,
                   objects=[shift(o) for o in spec.objects],
                   persons=[shift(p) for p in spec.persons])


# ---------------------------------------------------------------------------
# Scene spec files (flat key = value format, see config module)

def _background(text: str) -> tuple[int, ...] | str:
    return TEXTURE if text.strip() == TEXTURE else PARSERS["tuple[int, int, int]"](text)


def scene_from_mapping(pairs: dict[str, str]) -> SceneSpec:
    """Build a SceneSpec from flat keys.

    Top-level keys are the SceneSpec fields (background is three channel
    values or the word 'texture'); object.<n>.<field> and
    person.<n>.<field> keys are the SceneObject and ScenePerson fields.
    Groups are added in numeric order of n (ASCII digits), then other
    names in sorted order.  Values are checked at render time.
    """
    top, groups = split_keys(pairs, ("object", "person"), SceneError)
    spec = SceneSpec(**parse_fields(
        SceneSpec, top, SceneError, "scene", given=("objects", "persons"),
        parsers={**PARSERS, "tuple[int, int, int] | str": _background}))

    def group_order(key):
        kind, name = key
        digits = name.lstrip("0")  # compared as strings: int() has a digit limit
        return kind, (0, len(digits), digits) if name.isascii() and name.isdigit() else (1, name)

    kinds = {"object": (SceneObject, spec.objects), "person": (ScenePerson, spec.persons)}
    for kind, name in sorted(groups, key=group_order):
        cls, items = kinds[kind]
        items.append(cls(**parse_fields(cls, groups[kind, name], SceneError, f"{kind} {name}")))
    return spec
