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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SceneError
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


def _validate(spec: SceneSpec) -> None:
    if spec.width < 1 or spec.height < 1:
        raise SceneError(f"scene must be at least 1x1, got {spec.width}x{spec.height}")
    if spec.nframes < 0:
        raise SceneError(f"nframes must be >= 0, got {spec.nframes}")
    if not 0 <= spec.noise_sigma < np.inf:
        raise SceneError(f"noise_sigma must be finite and >= 0, got {spec.noise_sigma}")
    if isinstance(spec.background, str) and spec.background != TEXTURE:
        raise SceneError(f"background must be an RGB triple or {TEXTURE!r}")
    for kind, items in (("object", spec.objects), ("person", spec.persons)):
        for i, obj in enumerate(items, start=1):
            w, h = obj.size
            if w < 1 or h < 1:
                raise SceneError(f"{kind} {i}: size must be >= 1x1, got {w}x{h}")
            for t in range(spec.nframes):
                if not obj.visible(t, spec.nframes):
                    continue
                x, y = obj.position(t)
                if x < 0 or y < 0 or x + w > spec.width or y + h > spec.height:
                    raise SceneError(
                        f"{kind} {i} leaves the {spec.width}x{spec.height} frame "
                        f"at frame {t} (box {x},{y},{w},{h})")


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

    The PRNG is consumed in a fixed order: background texture first (when
    requested), then one noise field per frame (when noise_sigma > 0).
    Persons paint beneath objects, so a garment whose box sits inside a
    person box stays visible -- the worn-garment case the person filter
    is there to discard.
    """
    _validate(spec)
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
    """Render the scene to disk frame by frame; returns the frame count."""
    _validate(spec)  # before write_frame_sequence creates out_dir
    annotations, persons = [], []

    def frames():
        for frame, annotation, person_boxes in generate_frames(spec):
            annotations.append(annotation)
            persons.append(person_boxes)
            yield frame

    count = write_frame_sequence(frames(), out_dir)
    write_annotations(annotations, gt_path)
    if persons_path is not None:
        write_person_boxes(persons, persons_path)
    return count


def warmup_prefix(spec: SceneSpec, warmup_frames: int) -> SceneSpec:
    """Delay every object and person by warmup_frames and extend the scene,
    leaving a pure-background prefix for the model to converge on."""
    if warmup_frames < 0:
        raise SceneError(f"warmup_frames must be >= 0, got {warmup_frames}")
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

def _triple(value: str, key: str) -> tuple[int, int, int]:
    parts = value.split()
    if len(parts) != 3:
        raise SceneError(f"{key}: expected 3 integers, got {value!r}")
    try:
        r, g, b = (int(p) for p in parts)
    except ValueError:
        raise SceneError(f"{key}: expected 3 integers, got {value!r}") from None
    if not all(0 <= c <= 255 for c in (r, g, b)):
        raise SceneError(f"{key}: channel values must be in [0, 255]")
    return r, g, b


def _pair(value: str, key: str) -> tuple[int, int]:
    parts = value.split()
    if len(parts) != 2:
        raise SceneError(f"{key}: expected 2 integers, got {value!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise SceneError(f"{key}: expected 2 integers, got {value!r}") from None


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SceneError(f"{key}: expected an integer, got {value!r}") from None


def scene_from_mapping(pairs: dict[str, str]) -> SceneSpec:
    """Build a SceneSpec from flat keys.

    Scalar keys: width, height, nframes, background (three channel values
    or the word 'texture'), noise_sigma, seed.  Grouped keys follow
    object.<n>.<field> and person.<n>.<field> with fields color, size,
    start, velocity, appear, disappear, stripe_color, stripe_width (person
    groups use size/start/velocity/appear/disappear only).
    """
    groups: dict[tuple[str, str], dict[str, str]] = {}
    scalars: dict[str, str] = {}
    for key, value in pairs.items():
        parts = key.split(".")
        if len(parts) == 3 and parts[0] in ("object", "person"):
            groups.setdefault((parts[0], parts[1]), {})[parts[2]] = value
        elif len(parts) == 1:
            scalars[key] = value
        else:
            raise SceneError(f"unknown scene key {key!r}")

    known = {"width", "height", "nframes", "background", "noise_sigma", "seed"}
    unknown = set(scalars) - known
    if unknown:
        raise SceneError(f"unknown scene key {sorted(unknown)[0]!r}")
    for required in ("width", "height", "nframes"):
        if required not in scalars:
            raise SceneError(f"scene is missing required key {required!r}")

    spec = SceneSpec(width=_int(scalars["width"], "width"),
                     height=_int(scalars["height"], "height"),
                     nframes=_int(scalars["nframes"], "nframes"))
    if "background" in scalars:
        raw = scalars["background"]
        spec.background = TEXTURE if raw.strip() == TEXTURE else _triple(raw, "background")
    if "noise_sigma" in scalars:
        try:
            spec.noise_sigma = float(scalars["noise_sigma"])
        except ValueError:
            raise SceneError(f"noise_sigma: expected a number, "
                             f"got {scalars['noise_sigma']!r}") from None
    if "seed" in scalars:
        spec.seed = _int(scalars["seed"], "seed")

    def common(kind: str, name: str, fields: dict[str, str]) -> dict:
        kwargs = {}
        for need in ("size", "start"):
            if need not in fields:
                raise SceneError(f"{kind} {name} is missing {need!r}")
        kwargs["size"] = _pair(fields.pop("size"), f"{kind}.{name}.size")
        kwargs["start"] = _pair(fields.pop("start"), f"{kind}.{name}.start")
        if "velocity" in fields:
            kwargs["velocity"] = _pair(fields.pop("velocity"), f"{kind}.{name}.velocity")
        if "appear" in fields:
            kwargs["appear"] = _int(fields.pop("appear"), f"{kind}.{name}.appear")
        if "disappear" in fields:
            kwargs["disappear"] = _int(fields.pop("disappear"), f"{kind}.{name}.disappear")
        return kwargs

    def group_order(item):
        (kind, name), _ = item
        return (kind, (0, int(name)) if name.isdigit() else (1, name))

    for (kind, name), fields in sorted(groups.items(), key=group_order):
        if kind == "object":
            if "color" not in fields:
                raise SceneError(f"object {name} is missing 'color'")
            kwargs = {"color": _triple(fields.pop("color"), f"object.{name}.color")}
            if "stripe_color" in fields:
                kwargs["stripe_color"] = _triple(fields.pop("stripe_color"),
                                                 f"object.{name}.stripe_color")
            if "stripe_width" in fields:
                kwargs["stripe_width"] = _int(fields.pop("stripe_width"),
                                              f"object.{name}.stripe_width")
            kwargs.update(common(kind, name, fields))
            if fields:
                raise SceneError(f"object {name}: unknown field {sorted(fields)[0]!r}")
            spec.objects.append(SceneObject(**kwargs))
        else:
            kwargs = common(kind, name, fields)
            if fields:
                raise SceneError(f"person {name}: unknown field {sorted(fields)[0]!r}")
            spec.persons.append(ScenePerson(**kwargs))
    return spec
