"""Fixtures shared across test modules."""

import json
import math

import pytest

from melformer import tensor as T


@pytest.fixture
def backward_calls(monkeypatch):
    """``count(module)`` makes ``module.backward`` record every loss it
    back-propagates and returns the list it records into."""

    def count(module) -> list:
        calls = []

        def counted(loss):
            calls.append(loss)
            T.backward(loss)

        monkeypatch.setattr(module, "backward", counted)
        return calls

    return count


@pytest.fixture
def recorded():
    """``recorded()`` lists the live nodes recorded on the engine's tape
    since the fixture was set up, in creation order."""
    T._tape.clear()
    return lambda: [t for ref in T._tape if (t := ref()) is not None]


def forge_negative_dimension(header):
    """Entry 1 claims shape [-1] and entry 2 grows by entry 1's elements plus
    one, so the sizes still sum to the blob's: read without a check, entry 1
    is an empty slice and entry 2 starts 4 bytes inside entry 0."""
    (_, first), (_, second) = header["arrays"][1:3]
    header["arrays"][2][1] = [math.prod(second) + math.prod(first) + 1]
    header["arrays"][1][1] = [-1]


def duplicate_name(header):
    """``mask_embedding`` (1, D) renamed to ``feature_encoder.proj.bias`` (D,),
    a name the header already lists: the sizes still sum to the blob's."""
    for entry in header["arrays"]:
        if entry[0] == "mask_embedding":
            entry[0] = "feature_encoder.proj.bias"


def number_name(header):
    """The first array's name becomes the JSON number 7."""
    header["arrays"][0][0] = 7


def to_version_2(header):
    """The header as format version 2 wrote it: the arrays sorted by name,
    each entry giving its byte offset and size as well as its shape."""
    entries, offset = [], 0
    for name, shape in sorted(header["arrays"]):
        nbytes = 4 * math.prod(shape)
        entries.append({"name": name, "shape": shape, "offset": offset, "nbytes": nbytes})
        offset += nbytes
    header.update(format_version=2, arrays=entries)


@pytest.fixture
def malformed_headers():
    """Edits of a checkpoint's parsed header.json, by name; after any one of
    them, loading the checkpoint must raise StorageError."""
    return {
        "no-arrays": lambda h: h.pop("arrays"),
        "no-step": lambda h: h.pop("step"),
        "string-shape": lambda h: h.update(arrays=[[name, "4"] for name, _ in h["arrays"]]),
        "no-shape": lambda h: h.update(arrays=[[name] for name, _ in h["arrays"]]),
        "negative-dimension": forge_negative_dimension,
        "duplicate-name": duplicate_name,
        "version-2": to_version_2,
        "unknown-optimizer-name": lambda h: h.update(
            optimizer={"names": ["adam.m.missing"], "step_count": 1}
        ),
        "model-config-unknown-key": lambda h: h["model_config"].update(colour=1),
        "model-config-heads-not-dividing": lambda h: h["model_config"].update(num_heads=5),
        "string-step": lambda h: h.update(step=str(h["step"])),
        "fractional-step": lambda h: h.update(step=2.5),
        "negative-step": lambda h: h.update(step=-5),
        "boolean-step": lambda h: h.update(step=True),
        "string-seed": lambda h: h.update(seed=str(h["seed"])),
        "string-step-count": lambda h: h.update(optimizer={"names": [], "step_count": "2"}),
        "number-name": number_name,
    }


def truncate_blob(path):
    with (path / "arrays.bin").open("r+b") as blob:
        blob.truncate(100)


def rewrite_header(path, edit):
    header = json.loads((path / "header.json").read_text())
    edit(header)
    (path / "header.json").write_text(json.dumps(header))


@pytest.fixture
def checkpoint_corruptions():
    """Ways to corrupt the checkpoint directory at a path, by name; after
    any one of them, loading it must raise StorageError."""
    return {
        "truncated-blob": truncate_blob,
        "bad-json": lambda path: (path / "header.json").write_text("{not json"),
        "wrong-version": lambda path: rewrite_header(
            path, lambda h: h.update(format_version=99)
        ),
        "string-step": lambda path: rewrite_header(path, lambda h: h.update(step=str(h["step"]))),
    }
