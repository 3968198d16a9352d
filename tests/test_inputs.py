"""One input rule for every plain array argument of the public API.

`ARGUMENTS` lists, for every array argument of every `__all__` callable, a valid value and a call that puts a value in its place; `EXEMPT`
lists the array-shaped parameters that the rule does not cover, with the
reason. A completeness check walks `inspect.signature`, so a new array
argument has to appear in one of the two. Every variant that breaks the
rule (string, object, bool for a number, float for an integer, a number
for a bool, a wrong number of dimensions and, where the callable requires
finite values, NaN and ±inf) must raise a ValueError that names the
argument."""

import importlib
import inspect
import pkgutil
import re
from typing import Callable, NamedTuple

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import embedtrack
from embedtrack import (
    EmbeddingHeadParams,
    LossConfig,
    SimConfig,
    TrainConfig,
    batch_loss,
    cosine_lr,
    distance_histogram,
    distance_matrix,
    embed_batch,
    gradient,
    ground_truth_records,
    init_params,
    match_frames,
    mean_ap,
    simulate,
    sweep_threshold,
    track_sequence,
    train,
    training_batches,
    update_tracks,
)

PARAMS = init_params(3, 4, 2, np.random.default_rng(0))
FRAMES = simulate(SimConfig(identity_count=3, frame_count=4, feature_dim=3))
TRACKS = track_sequence(FRAMES, PARAMS, 1.0)
FEATURES = np.arange(12, dtype=np.float64).reshape(4, 3) / 4.0
IDENTITIES = np.array([0, 0, 1, 1])
COUNTS = np.array([2, 2])
DISTANCES = np.array([0.5, 3.0, 1.0])
IS_SAME = np.array([True, False, True])


class Argument(NamedTuple):
    owner: str  # the callable as `__all__` names it, "Class.method" for a method
    parameter: str  # the signature parameter the value fills
    name: str  # the argument a refusal names
    kind: str  # "f", "i" or "b" (float, integer, bool cells); "m" for `matches`
    finite: bool  # whether NaN and ±inf are refused
    valid: object
    call: Callable[[object], object]


def _argument(fn, name, kind, valid, finite=False, owner=None, **others):
    """The `Argument` of `fn`'s parameter `name`, called by keyword with the
    other arguments `others`."""
    return Argument(owner or fn.__name__, name, name, kind, finite, valid,
                    lambda value: fn(**{**others, name: value}))


def _train(index, name, kind, valid):
    """The `Argument` of item `index` of `train`'s batches triple."""
    def call(value):
        batches = [FEATURES, IDENTITIES, COUNTS]
        batches[index] = value
        return train(tuple(batches), LossConfig(), TrainConfig(epochs=1, hidden_dim=4, embed_dim=2))
    return Argument("train", "batches", name, kind, kind == "f", valid, call)


HEAD = {"w1": PARAMS.w1, "b1": PARAMS.b1, "w2": PARAMS.w2, "b2": PARAMS.b2}
STEP = {"params": PARAMS, "features": FEATURES, "identities": IDENTITIES, "cfg": LossConfig()}
PAIRS = {"distances": DISTANCES, "is_same": IS_SAME}

ARGUMENTS = [
    *(_argument(EmbeddingHeadParams, name, "f", value, finite=True,
                **{k: v for k, v in HEAD.items() if k != name})
      for name, value in HEAD.items()),
    _argument(EmbeddingHeadParams.from_flat, "vec", "f", PARAMS.to_flat(), finite=True,
              owner="EmbeddingHeadParams.from_flat", feature_dim=3, hidden_dim=4, embed_dim=2),
    _argument(embed_batch, "features", "f", FEATURES, params=PARAMS),
    _argument(distance_matrix, "current", "f", FEATURES[:2], former=FEATURES),
    _argument(distance_matrix, "former", "f", FEATURES, current=FEATURES[:2]),
    _argument(match_frames, "distances", "f", np.array([[0.1, 2.0], [3.0, 0.2]]), threshold=1.0),
    _argument(update_tracks, "former_ids", "i", np.array([7, 8]), matches=[1, None], next_id=9),
    _argument(update_tracks, "matches", "m", [1, None, 0], former_ids=np.array([7, 8]),
              next_id=9),
    *(_argument(fn, name, kind, STEP[name], finite=kind == "f",
                **{k: v for k, v in STEP.items() if k != name})
      for fn in (batch_loss, gradient) for name, kind in (("features", "f"), ("identities", "i"))),
    _train(0, "features", "f", FEATURES),
    _train(1, "identities", "i", IDENTITIES),
    _train(2, "counts", "i", COUNTS),
    *(_argument(fn, name, kind, PAIRS[name], finite=kind == "f",
                **{k: v for k, v in PAIRS.items() if k != name})
      for fn in (sweep_threshold, distance_histogram)
      for name, kind in (("distances", "f"), ("is_same", "b"))),
    _argument(training_batches, "pairs", "i", np.array([[0, 1], [1, 2]]), frames=FRAMES),
    _argument(cosine_lr, "step", "i", np.array([0, 3, 10]), total_steps=10, initial_lr=1e-3),
    _argument(mean_ap, "iou_thresholds", "f", np.array([0.5, 0.75]), finite=True,
              predictions=TRACKS, ground_truths=ground_truth_records(FRAMES)),
]

# Array-shaped parameters outside the rule, as "owner" (every parameter) or
# "owner.parameter", with the reason.
EXEMPT = {
    "Frames": "the frames table: load_frames and simulate build its columns, "
              "each defined by its dtype",
    "ThresholdSweep": "a result, built by sweep_threshold from checked arrays",
    "iou.a": "a box of four scalars, read by index",
    "iou.b": "a box of four scalars, read by index",
    "mean_ap.predictions": "a record array, defined by its fields",
    "mean_ap.ground_truths": "a record array, defined by its fields",
    "track_counts.tracks": "a record array, defined by its fields",
    "save_track_records.tracks": "a record array, defined by its fields",
    "write_histogram_csv.hist": "a record array, defined by its fields",
    "main.argv": "command-line words, parsed by argparse",
}

# An annotation of an array-shaped value; a parameter without one is taken
# to be array-shaped too.
ARRAY_HINT = re.compile(r"ndarray|recarray|Sequence|tuple|list")


def _public_callables():
    """(owner, callable) for every callable that the package or one of its
    modules lists in `__all__`, but the exceptions, and for every public
    method of an exported class."""
    modules = [embedtrack] + [
        importlib.import_module(f"embedtrack.{info.name}")
        for info in pkgutil.iter_modules(embedtrack.__path__)
        if info.name != "__main__"  # runs the CLI when imported
    ]
    names = {name: getattr(module, name) for module in modules for name in module.__all__}
    for name, obj in names.items():
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, Exception)):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                method = inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod))
                if method and not attr.startswith("_"):
                    yield f"{name}.{attr}", getattr(obj, attr)


def _array_parameters():
    for owner, fn in _public_callables():
        for parameter in inspect.signature(fn).parameters.values():
            hint = parameter.annotation
            if parameter.name in ("self", "cls"):
                continue
            if hint is inspect.Parameter.empty or ARRAY_HINT.search(str(hint)):
                yield owner, parameter.name


def test_every_array_argument_is_listed_or_exempt():
    listed = {(a.owner, a.parameter) for a in ARGUMENTS}
    found = set(_array_parameters())
    unlisted = {
        (owner, parameter) for owner, parameter in found - listed
        if owner not in EXEMPT and f"{owner}.{parameter}" not in EXEMPT
    }
    assert unlisted == set()
    assert listed <= found
    stale = {key for key in EXEMPT if not any(key in (o, f"{o}.{p}") for o, p in found)}
    assert stale == set()


@pytest.mark.parametrize("as_list", [False, True])
@pytest.mark.parametrize("argument", ARGUMENTS, ids=lambda a: f"{a.owner}-{a.name}")
def test_valid_value_is_taken(argument, as_list):
    value = argument.valid
    argument.call(value.tolist() if as_list and isinstance(value, np.ndarray) else value)


# kind -> the cell kinds that break the rule, as conversions of a valid array.
WRONG_CELLS = {
    "f": {"bool": bool},
    "i": {"bool": bool, "float": np.float64},
    "b": {"int": np.int64, "float": np.float64},
}

# Wrong entries of `matches`, from a valid column index.
WRONG_MATCHES = {
    "string": str,
    "bool": bool,
    "float": float,
    "nested": lambda j: [j],
    "object": lambda j: object(),
}


@st.composite
def _variant(draw, argument):
    """A value that breaks the rule for `argument`, and what breaks it."""
    if argument.kind == "m":
        entries = list(argument.valid)
        what = draw(st.sampled_from(sorted(WRONG_MATCHES)))
        at = draw(st.sampled_from([k for k, j in enumerate(entries) if j is not None]))
        entries[at] = WRONG_MATCHES[what](entries[at])
        return entries, what
    valid = np.asarray(argument.valid)
    variants = ["string", "object", "axis-front", "axis-back", *WRONG_CELLS[argument.kind]]
    if valid.ndim > 1:
        variants.append("flat")
    if argument.finite:
        variants.append("non-finite")
    what = draw(st.sampled_from(variants))
    if what == "string":
        value = valid.astype(str)
    elif what == "object":
        return valid.astype(object), what  # as a list it would be valid numbers
    elif what == "axis-front":
        value = valid[None]
    elif what == "axis-back":
        value = valid[..., None]
    elif what == "flat":
        value = valid.ravel()
    elif what == "non-finite":
        value = valid.copy()
        value.flat[draw(st.integers(0, value.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
    else:
        value = valid.astype(WRONG_CELLS[argument.kind][what])
    return (value.tolist() if draw(st.booleans()) else value), what


@pytest.mark.parametrize("argument", ARGUMENTS, ids=lambda a: f"{a.owner}-{a.name}")
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_broken_value_is_refused_by_name(argument, data):
    value, _ = data.draw(_variant(argument), label="variant (value, what breaks the rule)")
    with pytest.raises(ValueError, match=rf"\b{argument.name}\b"):
        argument.call(value)


INTEGER_ARGUMENTS = [a for a in ARGUMENTS if a.kind == "i"]


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS, ids=lambda a: f"{a.owner}-{a.name}")
def test_unsigned_integers_are_taken_up_to_the_int64_maximum(argument):
    argument.call(np.asarray(argument.valid).astype(np.uint64))


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS, ids=lambda a: f"{a.owner}-{a.name}")
@pytest.mark.parametrize("value", [2**63, 2**64 - 1])
def test_unsigned_integers_above_the_int64_maximum_are_refused(argument, value):
    """Converting them to int64 would wrap them to negative values."""
    wide = np.asarray(argument.valid).astype(np.uint64)
    wide.flat[-1] = value
    with pytest.raises(ValueError, match=rf"^{argument.name} holds integers above the int64"):
        argument.call(wide)
