"""Property tests: every persisted record survives its JSON form unchanged.

Decode configs, arms and manifests are stored in ``manifest.json``;
trajectories in campaign problem files and CLI decode output. Each is
written through its ``to_dict`` and read back through its ``from_dict``.
"""

import json

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
    tokens = draw(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=8))
    instrumented = draw(st.booleans())
    steps = tuple(
        StepRecord(
            token=token,
            chosen_logprob=draw(finite(max_value=0)),
            kl_base_vs_combined=draw(finite(min_value=0)) if instrumented else None,
        )
        for token in tokens
    )
    return Trajectory(
        prompt_tokens=tuple(draw(st.lists(st.integers(min_value=0), min_size=1, max_size=8))),
        generated=steps,
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
    instrumented = any(step.kl_base_vs_combined is not None for step in trajectory.generated)
    assert ("kl" in data) == instrumented
    rebuilt = Trajectory.from_dict(data, trajectory.config_snapshot, trajectory.scorer_labels)
    assert rebuilt == trajectory


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
