"""Seeded synthetic scenes for the benchmark workloads.

A workload's parameters come from ``design.json``; the seed picks garment
positions, drift directions and stripe colours, and seeds the renderer's
pixel noise and background texture.  Counts, sizes and speeds are fixed by
the workload, so two seeds cost the pipeline about the same.  Sizes and
speeds are given for 320x240 and scaled to the workload's resolution.
"""

from __future__ import annotations

import random

from garmwatch import synth

# one colour inside each default band (red, yellow, green, blue)
BAND_COLORS = ((220, 30, 30), (220, 200, 30), (30, 200, 30), (40, 40, 230))


def _scaled(value: int, factor: float) -> int:
    """Scale a length or speed; a non-zero value stays non-zero."""
    if value == 0:
        return 0
    size = max(1, round(abs(value) * factor))
    return size if value > 0 else -size


def _drift(rng, speed: int, factor: float) -> int:
    return _scaled(rng.choice((-1, 1)) * speed, factor)


def _start_x(rng, lo: int, hi: int, width: int, vx: int, active: int) -> int:
    """A random x in [lo, hi - width] from which the box stays in range."""
    travel = abs(vx) * (active - 1)
    return rng.randint(lo, hi - width - travel) + (travel if vx < 0 else 0)


def rack_scene(params: dict, width: int, height: int, active: int, seed: int):
    """Three drifting garments on plain gray; one person box wears one of them."""
    rng = random.Random(seed)
    sx, sy = width / 320, height / 240
    gw, gh = _scaled(params["garment_size"][0], sx), _scaled(params["garment_size"][1], sy)
    mx, my = _scaled(params["person_margin"], sx), _scaled(params["person_margin"], sy)
    colors = [BAND_COLORS[i] for i in params["band_colors"]]
    lane_h = height // len(colors)
    objects, persons = [], []
    for lane, color in enumerate(colors):
        # each garment drifts along its own horizontal lane, so none merge
        vx = _drift(rng, params["speed"], sx)
        x = _start_x(rng, mx, width - mx, gw, vx, active)
        y = lane * lane_h + rng.randint(my, lane_h - gh - my)
        objects.append(synth.SceneObject(color=color, size=(gw, gh), start=(x, y),
                                         velocity=(vx, 0)))
        if lane == params["worn_lane"]:
            persons.append(synth.ScenePerson(size=(gw + 2 * mx, gh + 2 * my),
                                             start=(x - mx, y - my), velocity=(vx, 0)))
    return objects, persons


def crowd_scene(params: dict, width: int, height: int, active: int, seed: int):
    """Striped garments in all four bands on a textured background.

    A few drift in pairs along lanes at the top, far enough apart that
    they never merge, so every seed scores alike; the rest are worn by
    persons crossing the lower part of the frame, where they overlap.
    """
    rng = random.Random(seed)
    sx, sy = width / 320, height / 240
    gw, gh = _scaled(params["garment_size"][0], sx), _scaled(params["garment_size"][1], sy)
    pw, ph = _scaled(params["person_size"][0], sx), _scaled(params["person_size"][1], sy)
    stripe = _scaled(params["stripe_width"], sy)
    lane_h = _scaled(params["lane_height"], sy)
    spacing = gw + _scaled(params["lane_gap"], sx)
    pair = spacing + gw

    def garment(x, y, vx):
        a, b = rng.sample(BAND_COLORS, 2)
        return synth.SceneObject(color=a, stripe_color=b, stripe_width=stripe,
                                 size=(gw, gh), start=(x, y), velocity=(vx, 0))

    objects, persons = [], []
    for lane in range(params["lanes"]):
        vx = _drift(rng, params["speed"], sx)
        x = _start_x(rng, 0, width, pair, vx, active)
        y = lane * lane_h + (lane_h - gh) // 2
        objects += [garment(x, y, vx), garment(x + spacing, y, vx)]
    top = lane_h * params["lanes"]
    worn = params["worn_per_person"]
    for _ in range(params["persons"]):
        vx = _drift(rng, params["speed"], sx)
        x = _start_x(rng, 0, width, pw, vx, active)
        y = rng.randint(top, height - ph)
        persons.append(synth.ScenePerson(size=(pw, ph), start=(x, y), velocity=(vx, 0)))
        # worn garments stack down the middle of the person box
        objects += [garment(x + (pw - gw) // 2, y + (k + 1) * ph // (worn + 1) - gh // 2, vx)
                    for k in range(worn)]
    return objects, persons


SCENES = {"rack": rack_scene, "crowd": crowd_scene}


def build_spec(workload: dict, seed: int, tiny: bool = False) -> synth.SceneSpec:
    """The workload's scene for this seed, with its warmup prefix in front."""
    width, height = workload["width"], workload["height"]
    active = workload["active_frames"]
    if tiny:
        factor = width // 80
        width, height, active = width // factor, height // factor, 8
    objects, persons = SCENES[workload["scene"]](workload["params"], width, height,
                                                 active, seed)
    background = workload["background"]
    spec = synth.SceneSpec(
        width=width, height=height, nframes=active,
        background=background if isinstance(background, str) else tuple(background),
        objects=objects, persons=persons,
        noise_sigma=workload["noise_sigma"], seed=seed)
    return synth.warmup_prefix(spec, workload["warmup_frames"])
