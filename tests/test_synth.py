from dataclasses import replace
import gc
import time
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from garmwatch import (BoundingBox, SceneError, SceneObject, ScenePerson,
                       SceneSpec, generate, generate_frames, warmup_prefix)
from garmwatch import frameio, synth
from garmwatch.synth import scene_from_mapping
from garmwatch.config import parse_flat_text


def render(spec):
    return list(generate_frames(spec))


# ---------------------------------------------------------------------------
# basic rendering

def test_static_object_constant_ground_truth():
    spec = SceneSpec(100, 80, 10, background=(50, 50, 50),
                     objects=[SceneObject((200, 0, 0), (40, 40), (5, 5))])
    out = render(spec)
    assert len(out) == 10
    for frame, ann, _ in out:
        assert ann.boxes == [BoundingBox(5, 5, 40, 40)]
        assert np.array_equal(frame.pixels, out[0][0].pixels)
    # the painted rectangle is exactly the ground-truth box
    px = out[0][0].pixels
    assert (px[5:45, 5:45] == (200, 0, 0)).all()
    assert (px[0:5, :] == (50, 50, 50)).all()


def test_trajectory_closed_form():
    spec = SceneSpec(100, 40, 8,
                     objects=[SceneObject((0, 200, 0), (10, 10), (10, 10),
                                          velocity=(2, 0))])
    xs = [ann.boxes[0].x for _, ann, _ in render(spec)]
    assert xs == [10 + 2 * t for t in range(8)]


def test_appear_disappear_window():
    spec = SceneSpec(50, 50, 10,
                     objects=[SceneObject((200, 0, 0), (5, 5), (0, 0),
                                          appear=3, disappear=7)])
    visible = [bool(ann.boxes) for _, ann, _ in render(spec)]
    assert visible == [False] * 3 + [True] * 4 + [False] * 3


def test_out_of_bounds_trajectory_names_object_and_frame():
    spec = SceneSpec(50, 50, 30,
                     objects=[SceneObject((200, 0, 0), (10, 10), (35, 10),
                                          velocity=(1, 0))])
    with pytest.raises(SceneError, match=r"object 1 .*frame 6"):
        render(spec)


def test_determinism_without_noise():
    spec = SceneSpec(60, 40, 5, objects=[SceneObject((0, 0, 200), (8, 8), (3, 3))])
    a = render(spec)
    b = render(spec)
    for (fa, _, _), (fb, _, _) in zip(a, b):
        assert np.array_equal(fa.pixels, fb.pixels)


def test_determinism_with_noise_and_texture():
    spec = SceneSpec(60, 40, 5, background="texture", noise_sigma=6.0, seed=99)
    a = render(spec)
    b = render(spec)
    for (fa, _, _), (fb, _, _) in zip(a, b):
        assert np.array_equal(fa.pixels, fb.pixels)
    # different seed, different pixels
    c = render(SceneSpec(60, 40, 5, background="texture", noise_sigma=6.0, seed=100))
    assert not np.array_equal(a[0][0].pixels, c[0][0].pixels)


def test_zero_noise_keeps_background_constant():
    spec = SceneSpec(40, 30, 6, background=(80, 90, 100))
    frames = [f.pixels for f, _, _ in render(spec)]
    for px in frames[1:]:
        assert np.array_equal(px, frames[0])


def test_noise_perturbs_frames():
    spec = SceneSpec(40, 30, 2, background=(80, 90, 100), noise_sigma=5.0, seed=1)
    frames = [f.pixels for f, _, _ in render(spec)]
    assert not np.array_equal(frames[0], frames[1])


def test_striped_object_alternates_rows():
    obj = SceneObject((200, 0, 0), (8, 16), (0, 0),
                      stripe_color=(0, 0, 200), stripe_width=4)
    spec = SceneSpec(20, 20, 1, background=(50, 50, 50), objects=[obj])
    px = render(spec)[0][0].pixels
    assert (px[0:4, 0:8] == (200, 0, 0)).all()
    assert (px[4:8, 0:8] == (0, 0, 200)).all()
    assert (px[8:12, 0:8] == (200, 0, 0)).all()


def test_person_rendering_and_sidecar():
    spec = SceneSpec(60, 60, 4,
                     persons=[ScenePerson((20, 30), (10, 10), velocity=(1, 0))])
    out = render(spec)
    for t, (frame, _, persons) in enumerate(out):
        assert persons.boxes == [BoundingBox(10 + t, 10, 20, 30)]
        box = persons.boxes[0]
        assert (frame.pixels[box.y:box.y2, box.x:box.x2] != 96).any()


def test_validation_errors():
    with pytest.raises(SceneError):
        render(SceneSpec(0, 10, 1))
    with pytest.raises(SceneError, match="nframes"):
        render(SceneSpec(10, 10, -1))
    with pytest.raises(SceneError):
        render(SceneSpec(10, 10, 1, noise_sigma=-1.0))
    with pytest.raises(SceneError):
        render(SceneSpec(10, 10, 1, background="speckle"))
    with pytest.raises(SceneError):
        render(SceneSpec(10, 10, 1, objects=[SceneObject((0, 0, 0), (0, 4), (0, 0))]))
    with pytest.raises(SceneError, match="color"):
        render(SceneSpec(8, 8, 1, objects=[SceneObject((300, 0, 0), (2, 2), (0, 0))]))
    with pytest.raises(SceneError, match="stripe_color"):
        render(SceneSpec(8, 8, 1, objects=[SceneObject((0, 0, 0), (2, 2), (0, 0),
                                                       stripe_color=(0, -1, 0))]))
    with pytest.raises(SceneError, match="background"):
        render(SceneSpec(8, 8, 1, background=(-1, 0, 0)))
    with pytest.raises(SceneError, match="stripe_width"):
        render(SceneSpec(8, 8, 1, objects=[SceneObject((0, 0, 0), (2, 2), (0, 0),
                                                       stripe_width=0)]))


# Python-built records reach the renderer unparsed; each bad field must end
# in a SceneError naming it, not in a TypeError from the arithmetic

@pytest.mark.parametrize("kw", [
    {"width": "a"}, {"nframes": 2.5}, {"seed": 1.5}, {"noise_sigma": "x"},
    {"background": (1.5, 2, 3)}, {"background": (1, 2)},
], ids=["str-width", "float-nframes", "float-seed", "str-noise", "float-channel", "two-channels"])
def test_scene_spec_fields_are_checked(kw):
    with pytest.raises(SceneError, match=next(iter(kw))):
        render(replace(SceneSpec(4, 4, 2), **kw))


@pytest.mark.parametrize("kw", [
    {"size": 5}, {"velocity": (0.5, 0)}, {"color": (1.5, 2, 3)}, {"color": (1, 2)},
    {"start": (0, 0, 0)}, {"stripe_color": (0, "a", 0)}, {"stripe_width": 2.5},
    {"appear": None}, {"disappear": 1.5},
], ids=["int-size", "float-velocity", "float-channel", "two-channels", "three-start",
        "str-stripe-channel", "float-stripe-width", "none-appear", "float-disappear"])
def test_scene_object_fields_are_checked(kw):
    obj = replace(SceneObject((200, 0, 0), (2, 2), (0, 0)), **kw)
    with pytest.raises(SceneError, match=next(iter(kw))):
        render(SceneSpec(8, 8, 2, objects=[obj]))


@pytest.mark.parametrize("kw", [
    {"size": 5}, {"start": (0.5, 0)}, {"velocity": (0, "a")}, {"appear": 1.5},
], ids=["int-size", "float-start", "str-velocity", "float-appear"])
def test_scene_person_fields_are_checked(kw):
    person = replace(ScenePerson((2, 2), (0, 0)), **kw)
    with pytest.raises(SceneError, match=next(iter(kw))):
        render(SceneSpec(8, 8, 2, persons=[person]))


@pytest.mark.parametrize("kw, message", [
    ({"objects": [5]}, "object 1 must be a SceneObject"),
    ({"objects": [ScenePerson((1, 1), (0, 0))]}, "object 1 must be a SceneObject"),
    ({"persons": [SceneObject((200, 0, 0), (1, 1), (0, 0))]}, "person 1 must be a ScenePerson"),
    ({"objects": None}, "objects must be a list"),
], ids=["int-object", "person-as-object", "object-as-person", "none-objects"])
def test_scene_entries_must_be_their_kind(kw, message):
    # a person among the objects would paint as a person yet be listed as truth
    with pytest.raises(SceneError, match=message):
        generate_frames(replace(SceneSpec(4, 4, 1), **kw))


def test_generate_frames_validates_when_called():
    with pytest.raises(SceneError):
        generate_frames(SceneSpec(0, 10, 1))  # no frame drawn


def test_generate_validates_once(tmp_path, monkeypatch):
    calls = []
    validate = synth._validate
    monkeypatch.setattr(synth, "_validate", lambda spec: calls.append(spec) or validate(spec))
    spec = SceneSpec(8, 6, 2)
    generate(spec, tmp_path / "frames", tmp_path / "gt.jsonl")
    assert calls == [spec]
    with pytest.raises(SceneError):
        generate(SceneSpec(0, 6, 2), tmp_path / "bad", tmp_path / "bad.jsonl",
                 tmp_path / "bad-persons.jsonl")
    assert not (tmp_path / "bad").exists()
    assert not (tmp_path / "bad.jsonl").exists()
    assert not (tmp_path / "bad-persons.jsonl").exists()


def test_numpy_appear_renders_without_wrapping():
    # frame - appear would wrap in int64; the checked spec holds plain ints
    obj = SceneObject((200, 0, 0), (1, 1), (0, 0), appear=np.int64(-2**63))
    rows = render(SceneSpec(8, 8, 3, objects=[obj]))
    assert [ann.boxes for _, ann, _ in rows] == [[BoundingBox(0, 0, 1, 1)]] * 3


def test_long_scene_yields_first_frame_at_once():
    spec = SceneSpec(6, 6, 10**17 + 1,
                     objects=[SceneObject((200, 0, 0), (2, 2), (0, 0), disappear=4)],
                     persons=[ScenePerson((1, 1), (3, 3))])
    start = time.perf_counter()
    frame, ann, persons = next(generate_frames(spec))
    assert time.perf_counter() - start < 1
    assert (frame.index, ann.boxes, persons.boxes) == (
        0, [BoundingBox(0, 0, 2, 2)], [BoundingBox(3, 3, 1, 1)])
    with pytest.raises(SceneError, match=r"person 1 .*frame 3 \(box 6,3,1,1\)"):
        generate_frames(replace(spec, persons=[ScenePerson((1, 1), (3, 3), velocity=(1, 0))]))


def walk(spec):
    """The per-frame reference for the trajectory bound: the message for the
    first visible frame on which a box leaves the frame, or None."""
    for kind, items in (("object", spec.objects), ("person", spec.persons)):
        for i, obj in enumerate(items, start=1):
            w, h = obj.size
            for t in range(spec.nframes):
                if obj.visible(t, spec.nframes):
                    x, y = obj.position(t)
                    if x < 0 or y < 0 or x + w > spec.width or y + h > spec.height:
                        return (f"{kind} {i} leaves the {spec.width}x{spec.height} frame "
                                f"at frame {t} (box {x},{y},{w},{h})")
    return None


PAIRS = st.tuples(st.integers(-6, 14), st.integers(-6, 14))
TRAJECTORIES = st.fixed_dictionaries({
    "size": st.tuples(st.integers(1, 8), st.integers(1, 8)), "start": PAIRS,
    "velocity": st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    "appear": st.integers(-8, 20), "disappear": st.none() | st.integers(-6, 25)})


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 20),
       st.lists(TRAJECTORIES, max_size=2), st.lists(TRAJECTORIES, max_size=2))
def test_trajectory_bound_matches_per_frame_walk(width, height, nframes, objects, persons):
    spec = SceneSpec(width, height, nframes,
                     objects=[SceneObject((200, 0, 0), **kw) for kw in objects],
                     persons=[ScenePerson(**kw) for kw in persons])
    try:
        checked = synth._validate(spec)
    except SceneError as e:
        assert str(e) == walk(spec)
    else:
        assert walk(spec) is None and checked == spec


# ---------------------------------------------------------------------------
# generate to disk

def test_generate_writes_all_outputs(tmp_path):
    spec = SceneSpec(40, 30, 6, objects=[SceneObject((200, 0, 0), (10, 10), (4, 4))],
                     persons=[ScenePerson((8, 12), (25, 10))])
    n = generate(spec, tmp_path / "frames", tmp_path / "gt.jsonl",
                 tmp_path / "persons.jsonl")
    assert n == 6
    frames = list(frameio.read_frame_sequence(tmp_path / "frames"))
    assert len(frames) == 6
    anns = frameio.read_annotations(tmp_path / "gt.jsonl")
    assert len(anns) == 6
    assert anns[0].boxes == [BoundingBox(4, 4, 10, 10)]
    persons = frameio.read_person_boxes(tmp_path / "persons.jsonl")
    assert persons[0].boxes == [BoundingBox(25, 10, 8, 12)]


def test_generate_byte_identical_reruns(tmp_path):
    spec = SceneSpec(30, 20, 4, background="texture", noise_sigma=4.0, seed=5,
                     objects=[SceneObject((200, 0, 0), (6, 6), (2, 2))])
    generate(spec, tmp_path / "a", tmp_path / "a.jsonl")
    generate(spec, tmp_path / "b", tmp_path / "b.jsonl")
    for i in range(4):
        name = frameio.frame_filename(i)
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_generate_streams_frames(tmp_path):
    # Frames go to disk as they are rendered: peak memory stays a few
    # frames, not the whole sequence.
    spec = SceneSpec(160, 120, 40, background="texture", seed=7,
                     objects=[SceneObject((200, 0, 0), (20, 20), (0, 0), velocity=(3, 2))])
    tracemalloc.start()
    try:
        assert generate(spec, tmp_path / "frames", tmp_path / "gt.jsonl") == 40
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 160 * 120 * 3


def test_generate_memory_flat_in_frame_count(tmp_path):
    # the ground-truth and person lines go out as each frame renders; held
    # until the end, the records cost ~0.7 KB a frame
    def generate_peak(nframes):
        spec = SceneSpec(16, 12, nframes,
                         objects=[SceneObject((200, 0, 0), (2, 2), (1, 1), velocity=(1, 0),
                                              disappear=10)],
                         persons=[ScenePerson((3, 3), (8, 6))])
        out = tmp_path / str(nframes)
        gc.collect()
        tracemalloc.start()
        try:
            assert generate(spec, out, tmp_path / f"{nframes}.jsonl",
                            tmp_path / f"{nframes}-persons.jsonl") == nframes
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    generate_peak(5)  # first-call caches
    short, long = generate_peak(200), generate_peak(2000)
    assert long - short < 64 * 1024  # the two files' write buffers


# ---------------------------------------------------------------------------
# warmup_prefix

def test_warmup_zero_is_identity():
    spec = SceneSpec(40, 30, 6, objects=[SceneObject((200, 0, 0), (5, 5), (0, 0))])
    assert warmup_prefix(spec, 0) is spec
    with pytest.raises(SceneError, match="warmup_frames"):
        warmup_prefix(spec, -1)


def test_warmup_shifts_appearances():
    spec = SceneSpec(40, 30, 10,
                     objects=[SceneObject((200, 0, 0), (5, 5), (0, 0),
                                          appear=2, disappear=8)],
                     persons=[ScenePerson((5, 5), (20, 20), appear=1)])
    shifted = warmup_prefix(spec, 100)
    assert shifted.nframes == 110
    assert shifted.objects[0].appear == 102
    assert shifted.objects[0].disappear == 108
    assert shifted.persons[0].appear == 101


WARMUP_SCENE = SceneSpec(40, 30, 10, objects=[SceneObject((200, 0, 0), (5, 5), (0, 0),
                                                         appear=1)])


def test_warmup_shifts_by_plain_int():
    shifted = warmup_prefix(WARMUP_SCENE, np.int64(5))
    assert type(shifted.nframes) is int and type(shifted.objects[0].appear) is int


def test_warmup_shift_does_not_wrap():
    # np.int64(2**63 - 1) + 1 wraps, with a RuntimeWarning
    shifted = warmup_prefix(WARMUP_SCENE, np.int64(2**63 - 1))
    assert (shifted.nframes, shifted.objects[0].appear) == (2**63 + 9, 2**63)


def test_warmup_prefix_is_pure_background():
    spec = SceneSpec(40, 30, 5, objects=[SceneObject((200, 0, 0), (5, 5), (0, 0))])
    out = render(warmup_prefix(spec, 20))
    for _, ann, _ in out[:20]:
        assert ann.boxes == []
    assert out[20][1].boxes == [BoundingBox(0, 0, 5, 5)]


# ---------------------------------------------------------------------------
# scene files

SCENE_TEXT = """
# demo scene
width = 64
height = 48
nframes = 12
background = 96 96 96
noise_sigma = 2.5
seed = 42

object.1.color = 220 30 30
object.1.size = 10 10
object.1.start = 5 5
object.1.velocity = 1 0
object.1.appear = 2
object.1.disappear = 10

object.2.color = 30 30 220
object.2.size = 8 8
object.2.start = 40 30
object.2.stripe_color = 220 220 30

person.1.size = 12 20
person.1.start = 20 10
person.1.velocity = 0 1
"""


def test_scene_from_mapping_full():
    spec = scene_from_mapping(parse_flat_text(SCENE_TEXT))
    assert (spec.width, spec.height, spec.nframes) == (64, 48, 12)
    assert spec.background == (96, 96, 96)
    assert spec.noise_sigma == 2.5
    assert spec.seed == 42
    assert len(spec.objects) == 2
    assert spec.objects[0].velocity == (1, 0)
    assert spec.objects[0].disappear == 10
    assert spec.objects[1].stripe_color == (220, 220, 30)
    assert len(spec.persons) == 1
    assert spec.persons[0].velocity == (0, 1)
    render(spec)  # must be a valid scene


def test_scene_mapping_errors():
    with pytest.raises(SceneError, match="width"):
        scene_from_mapping({"height": "10", "nframes": "1"})
    with pytest.raises(SceneError, match="unknown"):
        scene_from_mapping({"width": "10", "height": "10", "nframes": "1",
                            "wat": "1"})
    with pytest.raises(SceneError, match="color"):
        scene_from_mapping({"width": "10", "height": "10", "nframes": "1",
                            "object.1.size": "2 2", "object.1.start": "0 0"})
    with pytest.raises(SceneError):
        scene_from_mapping({"width": "10", "height": "10", "nframes": "1",
                            "background": "1 2"})
    with pytest.raises(SceneError, match="unknown field"):
        scene_from_mapping({"width": "10", "height": "10", "nframes": "1",
                            "object.1.color": "1 2 3", "object.1.size": "2 2",
                            "object.1.start": "0 0", "object.1.spin": "5"})
    for sigma in ("nan", "inf"):
        with pytest.raises(SceneError, match="noise_sigma must be finite"):
            render(scene_from_mapping({"width": "10", "height": "10", "nframes": "1",
                                       "noise_sigma": sigma}))


def test_scene_group_names_order_by_value():
    # 5000 digits is past int()'s limit; each object's red channel is its
    # place in the file
    names = ("10", "1" * 5000, "9", "0")
    pairs = {"width": "10", "height": "10", "nframes": "1"}
    for i, name in enumerate(names):
        pairs.update({f"object.{name}.color": f"{i} 0 0",
                      f"object.{name}.size": "2 2", f"object.{name}.start": "0 0"})
    assert [o.color[0] for o in scene_from_mapping(pairs).objects] == [3, 2, 0, 1]


# Object names include 10, which sorts before 2 as text: the parsed order
# must be numeric.  Person names put a digit name before a letter name.
OBJECT_NAMES = ("1", "2", "10")
PERSON_NAMES = ("9", "a")
CHANNELS = st.tuples(*[st.integers(0, 255)] * 3)


def optional(draw, kwargs, name, values):
    """Set kwargs[name] from values, or leave the field at its default."""
    if draw(st.booleans()):
        kwargs[name] = draw(values)


def flat_value(value):
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def scene_texts(draw):
    """A valid SceneSpec and its flat text, each field set only when drawn."""
    width, height, nframes = (draw(st.integers(32, 64)), draw(st.integers(32, 64)),
                              draw(st.integers(0, 5)))
    lines, top = [], {"width": width, "height": height, "nframes": nframes}
    optional(draw, top, "background", st.just("texture") | CHANNELS)
    optional(draw, top, "noise_sigma", st.floats(0, 10))
    optional(draw, top, "seed", st.integers(0, 2**32))
    lines += [f"{k} = {flat_value(v)}" for k, v in top.items()]
    groups = {"object": [], "person": []}
    for kind, cls, names in (("object", SceneObject, OBJECT_NAMES[-draw(st.integers(1, 3)):]),
                             ("person", ScenePerson, PERSON_NAMES[:draw(st.integers(0, 2))])):
        for name in names:
            # a box at least 10 px inside the frame moves at most 2 px a frame
            # for under 5 frames, so it never leaves
            size = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
            kw = {"size": size,
                  "start": (draw(st.integers(10, width - size[0] - 10)),
                            draw(st.integers(10, height - size[1] - 10)))}
            if kind == "object":
                kw["color"] = draw(CHANNELS)
                optional(draw, kw, "stripe_color", CHANNELS)
                optional(draw, kw, "stripe_width", st.integers(1, 6))
            optional(draw, kw, "velocity", st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
            optional(draw, kw, "appear", st.integers(0, 3))
            optional(draw, kw, "disappear", st.integers(0, 6))
            groups[kind].append(cls(**kw))
            lines += [f"{kind}.{name}.{k} = {flat_value(v)}" for k, v in kw.items()]
    spec = SceneSpec(**top, objects=groups["object"], persons=groups["person"])
    return spec, "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=200, deadline=None)
@given(scene_texts())
def test_scene_text_round_trips(scene):
    spec, text = scene
    assert scene_from_mapping(parse_flat_text(text)) == spec
    render(spec)  # a valid scene
