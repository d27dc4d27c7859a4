import base64
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from framescale import Frame, audit_lemma_chain, generate_enpf, perturb_frame, repair, reverify
from framescale.serialize import (
    frame_to_dict,
    read_frame,
    read_report,
    report_from_dict,
    report_to_dict,
    write_frame,
    write_report,
)

# A framescale/1 report of the module fixture's repair, written before
# framescale/2 existed; every array in it is a nested float list.
REPORT_V1 = Path(__file__).parent / "data" / "report_v1.json"

PACKED_FIELDS = ("frames.input.vectors", "frames.perturbed.vectors", "scaling.t", "scaling.A")


def assert_bit_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def parent_and_key(data: dict, field: str) -> tuple[dict, str]:
    *path, key = field.split(".")
    for name in path:
        data = data[name]
    return data, key


@pytest.fixture(scope="module")
def repaired():
    frame = perturb_frame(generate_enpf(4, 11, 21), 1e-2, 21)
    report = repair(frame, 1e-9, seed=21)
    return report, audit_lemma_chain(report)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_frame_round_trip_is_bit_exact(tmp_path, fmt):
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-300, 300, size=(7, 3))
    vectors[0] = [1.0 / 3.0, -0.1, 5e-324]
    vectors[1, 0] = -0.0
    frame = Frame(vectors)
    path = tmp_path / f"frame.{fmt}"
    write_frame(path, frame, fmt)
    assert_bit_equal(read_frame(path).vectors, frame.vectors)


def test_frame_crosses_codecs_bit_exact(tmp_path):
    # Random bit patterns cover every exponent; the rest are the edge doubles.
    bits = np.random.default_rng(5).integers(0, 2**64, size=20_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    values[:6] = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
    frame = Frame(values[: values.size // 4 * 4].reshape(-1, 4))
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    write_frame(ours, frame)
    assert_bit_equal(json.loads(ours.read_text())["vectors"], frame.vectors)
    theirs.write_text(json.dumps(frame_to_dict(frame)))
    assert_bit_equal(read_frame(theirs).vectors, frame.vectors)


def test_report_crosses_codecs_bit_exact(tmp_path, repaired):
    # Third-party readers and the benchmark's tamper check use stdlib json.
    report, audit = repaired
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    write_report(ours, report, audit)
    data = json.loads(ours.read_text())
    # repr of a float is exact, so equal stdlib text means equal bits and types.
    assert json.dumps(data) == json.dumps(report_to_dict(report, audit))
    theirs.write_text(json.dumps(data))
    loaded = read_report(theirs)
    for name in ("input_frame", "perturbed_frame", "output_frame"):
        assert_bit_equal(getattr(loaded, name).vectors, getattr(report, name).vectors)
    for name in ("t", "A"):
        assert_bit_equal(getattr(loaded.scaling, name), getattr(report.scaling, name))


def test_report_round_trip_is_bit_exact(tmp_path, repaired):
    report, audit = repaired
    path = tmp_path / "report.json"
    write_report(path, report, audit)
    loaded = read_report(path)
    for name in ("input_frame", "perturbed_frame", "output_frame"):
        assert_bit_equal(getattr(loaded, name).vectors, getattr(report, name).vectors)
    for name in ("t", "A"):
        assert_bit_equal(getattr(loaded.scaling, name), getattr(report.scaling, name))
    pairs = ((report, loaded), (report.scaling, loaded.scaling), (report.budget, loaded.budget))
    for obj, stored in pairs:
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, (bool, int, float)):
                assert type(getattr(stored, f.name)) is type(value), f.name
                assert_bit_equal(getattr(stored, f.name), value)


def test_indented_report_reads_back_identical(tmp_path, repaired):
    report, audit = repaired
    old = tmp_path / "indented.json"
    new = tmp_path / "compact.json"
    old.write_text(json.dumps(report_to_dict(report, audit), indent=2) + "\n")
    write_report(new, report, audit)
    from_old, from_new = read_report(old), read_report(new)
    assert report_to_dict(from_old) == report_to_dict(from_new)
    for name in ("input_frame", "perturbed_frame", "output_frame"):
        assert_bit_equal(getattr(from_old, name).vectors, getattr(from_new, name).vectors)
    assert_bit_equal(from_old.scaling.A, from_new.scaling.A)
    assert_bit_equal(from_old.scaling.t, from_new.scaling.t)


def test_report_file_is_one_line(tmp_path, repaired):
    report, audit = repaired
    path = tmp_path / "report.json"
    write_report(path, report, audit)
    text = path.read_text()
    assert text.endswith("\n")
    assert "\n" not in text[:-1]
    data = json.loads(text)
    assert data["schema"] == "framescale/2"
    for field in PACKED_FIELDS:
        parent, key = parent_and_key(data, field)
        assert isinstance(parent[key], str)
    assert isinstance(data["frames"]["output"]["vectors"], list)


def test_v1_report_still_loads(tmp_path, repaired):
    report, _ = repaired
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(json.loads(REPORT_V1.read_text()), indent=2) + "\n")
    for path in (REPORT_V1, indented):
        loaded = read_report(path)
        for name in ("input_frame", "perturbed_frame", "output_frame"):
            assert_bit_equal(getattr(loaded, name).vectors, getattr(report, name).vectors)
        for name in ("t", "A"):
            assert_bit_equal(getattr(loaded.scaling, name), getattr(report.scaling, name))
        fresh = reverify(loaded)
        assert fresh.certified and loaded.certified
        assert audit_lemma_chain(fresh).passed


@pytest.mark.parametrize("field", PACKED_FIELDS)
@pytest.mark.parametrize("damage", ["truncated", "not_base64"])
def test_damaged_packed_field_names_the_field(repaired, field, damage):
    report, audit = repaired
    data = report_to_dict(report, audit)
    parent, key = parent_and_key(data, field)
    text = parent[key]
    parent[key] = text[:-4] if damage == "truncated" else "*" + text[1:]
    with pytest.raises(ValueError, match=f"malformed report: {field} "):
        report_from_dict(data)


@pytest.mark.parametrize("field", ["scaling.t", "scaling.A"])
@pytest.mark.parametrize("schema", ["framescale/1", "framescale/2"])
def test_non_finite_scaling_is_malformed(repaired, field, schema):
    report, audit = repaired
    if schema == "framescale/1":
        # A v1 report holds the arrays as float lists; JSON null reads back as NaN.
        data = json.loads(REPORT_V1.read_text())
        parent, key = parent_and_key(data, field)
        parent[key][0] = None
    else:
        data = report_to_dict(report, audit)
        parent, key = parent_and_key(data, field)
        values = np.frombuffer(base64.b64decode(parent[key]), dtype="<f8").copy()
        values[0] = np.nan
        parent[key] = base64.b64encode(values.tobytes()).decode("ascii")
    with pytest.raises(ValueError, match=f"malformed report: {field} holds a non-finite value"):
        report_from_dict(data)
