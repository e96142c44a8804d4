"""Property tests: every persisted record survives its JSON form unchanged.

Decode configs, arms and manifests are stored in ``manifest.json``;
trajectories in campaign problem files and CLI decode output. Each is
written through its ``to_dict`` and read back through its ``from_dict``.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltadecode.core import DECODE_MODES, DecodeConfig
from deltadecode.decoder import INSTRUMENT_FLAGS, StepRecord, Trajectory
from deltadecode.harness import ArmSpec, RunManifest


def through_json(data):
    return json.loads(json.dumps(data, sort_keys=True))


def finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


configs = st.builds(
    DecodeConfig,
    delta_scale=finite(min_value=0),
    temperature=finite(min_value=0, exclude_min=True),
    top_p=st.floats(min_value=0, max_value=1, exclude_min=True),
    max_tokens=st.integers(min_value=1, max_value=1 << 20),
    mode=st.sampled_from(DECODE_MODES),
    seed=st.integers(min_value=-(1 << 70), max_value=1 << 70),
)
labels = st.from_regex(r"[A-Za-z0-9_.-]+", fullmatch=True)
maybe_text = st.none() | st.text()


@st.composite
def arms(draw):
    pair = draw(st.none() | st.tuples(st.text(), st.text()))
    return ArmSpec(
        label=draw(labels),
        base=draw(st.text()),
        expert=pair and pair[0],
        expert_base=pair and pair[1],
        config=draw(configs),
        samples_per_problem=draw(st.none() | st.integers(min_value=1, max_value=1000)),
        template=draw(maybe_text),
        vocab=draw(maybe_text),
        tokenizer=draw(maybe_text),
        instrument=tuple(draw(st.lists(st.sampled_from(INSTRUMENT_FLAGS), max_size=2))),
    )


manifests = st.builds(
    RunManifest,
    run_id=st.text(min_size=1),
    dataset=st.text(),
    arms=st.lists(arms(), min_size=1, max_size=3, unique_by=lambda arm: arm.label),
    samples_per_problem=st.integers(min_value=1, max_value=1000),
    answer_style=st.sampled_from(("boxed", "last_number")),
    created_at=st.text(),
    code_version=st.text(),
)


@st.composite
def trajectories(draw):
    tokens = tuple(draw(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=8)))
    column = dict(min_size=len(tokens), max_size=len(tokens))
    instrumented = draw(st.booleans())
    return Trajectory(
        prompt_tokens=tuple(draw(st.lists(st.integers(min_value=0), min_size=1, max_size=8))),
        tokens=tokens,
        logprobs=tuple(draw(st.lists(finite(max_value=0), **column))),
        kl=tuple(draw(st.lists(finite(min_value=0), **column))) if instrumented else (None,) * len(tokens),
        stop_reason=draw(st.sampled_from(("eos", "max_tokens"))),
        config_snapshot=draw(configs),
        scorer_labels=tuple(sorted(draw(st.dictionaries(st.text(), st.text())).items())),
    )


@given(configs)
def test_decode_config_round_trip(config):
    assert DecodeConfig.from_dict(through_json(config.to_dict())) == config


@given(arms())
def test_arm_round_trip(arm):
    assert ArmSpec.from_dict(through_json(arm.to_dict())) == arm


@given(manifests)
def test_manifest_round_trip(manifest):
    assert RunManifest.from_dict(through_json(manifest.to_dict())) == manifest


@given(trajectories())
def test_trajectory_round_trip(trajectory):
    data = through_json(trajectory.to_dict())
    instrumented = any(k is not None for k in trajectory.kl)
    assert ("kl" in data) == instrumented
    rebuilt = Trajectory.from_dict(data, trajectory.config_snapshot, trajectory.scorer_labels)
    assert rebuilt == trajectory


@given(trajectories())
def test_trajectory_stores_its_columns(trajectory):
    columns = (trajectory.tokens, trajectory.logprobs, trajectory.kl)
    assert trajectory.generated == tuple(StepRecord(*step) for step in zip(*columns))
    assert "generated" not in vars(trajectory)
    data = trajectory.to_dict()
    data["tokens"].append(0)
    data["logprobs"].append(0.0)
    assert trajectory.to_dict()["tokens"] == list(trajectory.tokens)
    assert trajectory.to_dict()["logprobs"] == list(trajectory.logprobs)
    line = json.dumps(trajectory.to_dict())
    rebuilt = Trajectory.from_dict(json.loads(line), trajectory.config_snapshot, trajectory.scorer_labels)
    assert rebuilt == trajectory and hash(rebuilt) == hash(trajectory)
    assert json.dumps(rebuilt.to_dict()) == line
    assert (rebuilt.tokens, rebuilt.logprobs, rebuilt.kl) == columns
    for name in ("tokens", "logprobs", "kl", "generated"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trajectory, name, ())


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"logprobs": [0.0]}, "4 tokens, 1 logprobs and 4 kl"),
        ({"kl": [0.0, 0.0]}, "4 tokens, 4 logprobs and 2 kl"),
    ],
    ids=["logprobs", "kl"],
)
def test_trajectory_unequal_lengths_rejected(changes, message):
    data = {
        "prompt_tokens": [0],
        "tokens": [1, 2, 3, 4],
        "logprobs": [-0.5] * 4,
        "kl": [0.1] * 4,
        "stop_reason": "max_tokens",
        **changes,
    }
    with pytest.raises(ValueError, match=message):
        Trajectory.from_dict(data, DecodeConfig())


@pytest.mark.parametrize(
    "changes, error, message",
    [
        ({"tokens": [1, 2.0, 3, 4]}, TypeError, r"token ids must be ints, got \['float'\]"),
        ({"tokens": [1, True, 3, 4]}, TypeError, r"token ids must be ints, got \['bool'\]"),
        ({"prompt_tokens": ["0"]}, TypeError, r"token ids must be ints, got \['str'\]"),
        ({"logprobs": [-0.5, "-0.5", -0.5, -0.5]}, TypeError, r"logprobs and kl must be real numbers, got \['str'\]"),
        ({"logprobs": [False] * 4}, TypeError, r"logprobs and kl must be real numbers, got \['bool'\]"),
        ({"logprobs": [-0.5, None, -0.5, -0.5]}, TypeError, "float"),
        ({"kl": [0.1, None, "0.1", True]}, TypeError, r"logprobs and kl must be real numbers, got \['bool', 'str'\]"),
        ({"stop_reason": 7}, ValueError, "stop_reason must be 'eos' or 'max_tokens', got 7"),
    ],
    ids=["float-token", "bool-token", "str-prompt", "str-logprob", "bool-logprob", "none-logprob", "kl", "stop"],
)
def test_trajectory_mistyped_fields_rejected(changes, error, message):
    data = {
        "prompt_tokens": [0],
        "tokens": [1, 2, 3, 4],
        "logprobs": [-0.5] * 4,
        "kl": [0.1] * 4,
        "stop_reason": "max_tokens",
        **changes,
    }
    with pytest.raises(error, match=message):
        Trajectory.from_dict(data, DecodeConfig())


def test_trajectory_numpy_numbers_accepted():
    trajectory = Trajectory.from_tokens(
        np.array([0]),
        np.array([1, 2]),
        "eos",
        DecodeConfig(),
        logprobs=np.array([-0.5, -1.0]),
        kl=[None, np.float32(0.25)],
    )
    assert trajectory.tokens == (1, 2) and type(trajectory.tokens[0]) is int
    assert [step.chosen_logprob for step in trajectory.generated] == [-0.5, -1.0]
    assert trajectory.generated[1].kl_base_vs_combined == 0.25


@pytest.mark.parametrize(
    "logprobs, kl",
    [
        ([float("nan"), -0.5], None),
        ([-0.5, -float("inf")], None),
        ([-0.5, -0.5], [0.0, float("inf")]),
        ([-0.5, -0.5], [None, float("nan")]),
        (np.array([-0.5, np.nan]), None),
    ],
    ids=["nan-logprob", "inf-logprob", "inf-kl", "nan-kl", "numpy-nan-logprob"],
)
def test_trajectory_non_finite_rejected(logprobs, kl):
    with pytest.raises(ValueError, match="logprobs and kl must be finite"):
        Trajectory.from_tokens([0], [1, 2], "eos", DecodeConfig(), logprobs=logprobs, kl=kl)
