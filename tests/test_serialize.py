import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from framescale import (
    Frame,
    audit_lemma_chain,
    generate_enpf,
    perturb_frame,
    renormalize,
    repair,
    reverify,
)
from framescale.serialize import (
    encode_json,
    frame_to_dict,
    read_frame,
    read_report,
    report_from_dict,
    report_to_dict,
    write_frame,
    write_report,
)
from helpers import read_packed, write_packed

# A framescale/1 report of the module fixture's repair, written before
# framescale/2 existed; every array in it is a nested float list.
REPORT_V1 = Path(__file__).parent / "data" / "report_v1.json"
# The same repair in framescale/2, written by the last code that wrote that
# schema: packed arrays and a perturbation budget block.
REPORT_V2 = Path(__file__).parent / "data" / "report_v2.json"
# The same repair in framescale/3, written by the last code that wrote that
# schema: base64 arrays, the perturbed frame always stored, no budget block.
REPORT_V3 = Path(__file__).parent / "data" / "report_v3.json"

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


@pytest.fixture(scope="module")
def moved():
    # The harmonic (4, 8) frame has dependent 4-subsets, so the gate moves U.
    vectors = generate_enpf(4, 8, 0).vectors.copy()
    vectors[0] *= 0.8
    report = repair(Frame(vectors), 1e-9, seed=0)
    return report, audit_lemma_chain(report)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_frame_round_trip_is_bit_exact(tmp_path, fmt):
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-300, 300, size=(7, 3))
    vectors[0] = [1.0 / 3.0, -0.1, 5e-324]
    vectors[1, 0] = -0.0
    frame = Frame(vectors)
    path = tmp_path / f"frame.{fmt}"
    write_frame(path, frame)
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


@pytest.mark.parametrize("order", ["C", "F"])
def test_written_report_equals_nested_list_encoding(tmp_path, repaired, order):
    # write_report encodes the output frame from its array; the bytes must not change.
    report, audit = repaired
    output = Frame(np.asarray(report.output_frame.vectors, order=order))
    report = dataclasses.replace(report, output_frame=output)
    path = tmp_path / "report.json"
    write_report(path, report, audit)
    assert path.read_bytes() == encode_json(report_to_dict(report, audit), "report")


def test_array_encodes_as_its_nested_list():
    bits = np.random.default_rng(9).integers(0, 2**64, size=32_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    values[:8] = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  1.0 / 3.0, 2.2250738585072014e-308]
    array = values[: values.size // 8 * 8].reshape(-1, 8)
    assert encode_json(array, "array") == encode_json(array.tolist(), "array")


def test_report_round_trip_is_bit_exact(tmp_path, repaired):
    report, audit = repaired
    path = tmp_path / "report.json"
    write_report(path, report, audit)
    loaded = read_report(path)
    for name in ("input_frame", "perturbed_frame", "output_frame"):
        assert_bit_equal(getattr(loaded, name).vectors, getattr(report, name).vectors)
    for name in ("t", "A"):
        assert_bit_equal(getattr(loaded.scaling, name), getattr(report.scaling, name))
    for obj, stored in ((report, loaded), (report.scaling, loaded.scaling)):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, (bool, int, float)):
                assert type(getattr(stored, f.name)) is type(value), f.name
                assert_bit_equal(getattr(stored, f.name), value)
    assert_bit_equal(loaded.gamma_prime_effective, report.gamma_prime_effective)


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
    assert data["schema"] == "framescale/4"
    assert "budget" not in data
    assert "perturbed" not in data["frames"]
    assert data["gamma_prime_effective"] == report.gamma_prime_effective
    for field in PACKED_FIELDS:
        if field.startswith("frames.perturbed"):
            continue
        parent, key = parent_and_key(data, field)
        assert isinstance(parent[key], str)
        assert parent[key] == bytes.fromhex(parent[key]).hex()  # lowercase hex, nothing else
    assert isinstance(data["frames"]["output"]["vectors"], list)


@pytest.mark.parametrize("which", ["repaired", "moved"])
def test_perturbed_frame_is_stored_only_when_the_gate_moved_it(tmp_path, request, which):
    report, audit = request.getfixturevalue(which)
    U = report.perturbed_frame.vectors
    renormalized = renormalize(report.input_frame, report.d / report.n).vectors
    gate_moved = U.tobytes() != renormalized.tobytes()
    assert gate_moved == (which == "moved")
    path = tmp_path / "report.json"
    write_report(path, report, audit)
    frames = json.loads(path.read_text())["frames"]
    assert ("perturbed" in frames) == gate_moved
    if gate_moved:
        assert_bit_equal(read_packed(frames["perturbed"]["vectors"]).reshape(U.shape), U)
    loaded = read_report(path)
    assert_bit_equal(loaded.perturbed_frame.vectors, U)
    assert report_to_dict(reverify(loaded)) == report_to_dict(reverify(report))


def test_v1_report_still_loads(tmp_path, repaired):
    report, _ = repaired
    raw = json.loads(REPORT_V1.read_text())
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(raw, indent=2) + "\n")
    frames = {"input_frame": "input", "perturbed_frame": "perturbed", "output_frame": "output"}
    for path in (REPORT_V1, indented):
        loaded = read_report(path)
        for name, key in frames.items():
            assert_bit_equal(getattr(loaded, name).vectors, raw["frames"][key]["vectors"])
        assert_bit_equal(loaded.scaling.t, raw["scaling"]["t"])
        assert_bit_equal(loaded.scaling.A, np.reshape(raw["scaling"]["A"], (raw["d"], raw["d"])))
        fresh = reverify(loaded)
        assert fresh.certified and loaded.certified
        assert audit_lemma_chain(fresh).passed
    # The fixture holds the module fixture's repair as the code of its day
    # computed it; today's repair agrees with it up to rounding.
    for name in frames:
        np.testing.assert_allclose(
            getattr(report, name).vectors, getattr(loaded, name).vectors, rtol=0, atol=1e-12
        )
    for name in ("t", "A"):
        np.testing.assert_allclose(
            getattr(report.scaling, name), getattr(loaded.scaling, name), rtol=0, atol=1e-12
        )


def test_v2_report_still_loads(repaired):
    # Today's repair of the same input is bit-identical to the stored one,
    # so the /2 report re-emits as today's /3 report, budget block dropped.
    report, audit = repaired
    raw = json.loads(REPORT_V2.read_text())
    assert raw["schema"] == "framescale/2" and "budget" in raw
    loaded = read_report(REPORT_V2)
    assert report_to_dict(loaded) == report_to_dict(report)
    fresh = reverify(loaded)
    assert fresh.certified and loaded.certified
    assert audit_lemma_chain(fresh).passed
    assert audit_lemma_chain(loaded) == audit


def test_v3_report_still_loads(repaired):
    # Today's repair of the same input is bit-identical to the stored one,
    # so the /3 report re-emits as today's /4 report, perturbed frame dropped.
    report, audit = repaired
    raw = json.loads(REPORT_V3.read_text())
    assert raw["schema"] == "framescale/3" and "perturbed" in raw["frames"]
    loaded = read_report(REPORT_V3)
    stored_U = read_packed(raw["frames"]["perturbed"]["vectors"], "framescale/3")
    assert_bit_equal(loaded.perturbed_frame.vectors, stored_U.reshape(11, 4))
    assert report_to_dict(loaded) == report_to_dict(report)
    fresh = reverify(loaded)
    assert fresh.certified and loaded.certified
    assert audit_lemma_chain(fresh).passed
    assert audit_lemma_chain(loaded) == audit


@pytest.mark.parametrize("schema", ["framescale/3", "framescale/2"])
def test_old_report_without_perturbed_frame_is_malformed(schema):
    # Only framescale/4 rebuilds a missing U.
    data = json.loads((REPORT_V3 if schema == "framescale/3" else REPORT_V2).read_text())
    del data["frames"]["perturbed"]
    with pytest.raises(ValueError, match="malformed report: KeyError: 'perturbed'"):
        report_from_dict(data)


@pytest.mark.parametrize("source", ["framescale/4", "framescale/3", "framescale/2"])
def test_audit_measures_gamma_prime_of_a_stored_report(tmp_path, repaired, source):
    # Output vectors rotated by 1e-3 rad in a coordinate plane move W off Wt
    # by 2e-6 in squared distance. A stored gamma' of 1e-3 would cover that,
    # but the audit of the loaded report measures gamma' from its perturbed
    # frame and fails check (e).
    report, audit = repaired
    if source == "framescale/4":
        data = report_to_dict(report, audit)
        data["gamma_prime_effective"] = 1e-3
    elif source == "framescale/3":
        data = json.loads(REPORT_V3.read_text())
        data["gamma_prime_effective"] = 1e-3
    else:
        data = json.loads(REPORT_V2.read_text())
        data["budget"]["gamma_prime_effective"] = 1e-3
    vectors = np.array(data["frames"]["output"]["vectors"])
    cos, sin = np.cos(1e-3), np.sin(1e-3)
    vectors[:, :2] = vectors[:, :2] @ np.array([[cos, sin], [-sin, cos]])
    data["frames"]["output"]["vectors"] = vectors.tolist()
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    loaded = read_report(path)
    rescaling = audit_lemma_chain(loaded).check("norm_rescaling_distance")
    assert not rescaling.passed
    assert rescaling.rhs == 2.0 * report.gamma_prime_effective
    assert loaded.gamma_prime_effective == report.gamma_prime_effective


# Damage to a /3 report's base64 text, and to a /4 report's hex text,
# which must not hold whitespace (bytes.fromhex would skip it).
DAMAGES = {
    "truncated": lambda text: text[:-4],
    "not_base64": lambda text: "*" + text[1:],
    "odd_length": lambda text: text[:-1],
    "not_hex": lambda text: "g" + text[1:],
    "whitespace": lambda text: f" {text} ",
}


@pytest.mark.parametrize("field", PACKED_FIELDS)
@pytest.mark.parametrize("damage", list(DAMAGES))
def test_damaged_packed_field_names_the_field(moved, field, damage):
    if damage == "not_base64":
        data = json.loads(REPORT_V3.read_text())
    else:
        report, audit = moved
        data = report_to_dict(report, audit)
    parent, key = parent_and_key(data, field)
    parent[key] = DAMAGES[damage](parent[key])
    with pytest.raises(ValueError, match=f"malformed report: {field} "):
        report_from_dict(data)


@pytest.mark.parametrize("field", ["scaling.t", "scaling.A"])
@pytest.mark.parametrize("schema", ["framescale/1", "framescale/2", "framescale/4"])
def test_non_finite_scaling_is_malformed(repaired, field, schema):
    report, audit = repaired
    if schema == "framescale/1":
        # A v1 report holds the arrays as float lists; JSON null reads back as NaN.
        data = json.loads(REPORT_V1.read_text())
        parent, key = parent_and_key(data, field)
        parent[key][0] = None
    else:
        if schema == "framescale/2":
            data = json.loads(REPORT_V2.read_text())
        else:
            data = report_to_dict(report, audit)
        parent, key = parent_and_key(data, field)
        values = read_packed(parent[key], schema)
        values[0] = np.nan
        parent[key] = write_packed(values, schema)
    with pytest.raises(ValueError, match=f"malformed report: {field} holds a non-finite value"):
        report_from_dict(data)
