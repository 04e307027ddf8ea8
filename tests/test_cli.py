"""CLI surface: convert round trip, deterministic reports, sweeps, and the
GEMV check battery with its negative controls."""

import argparse
import contextlib
import csv
import enum
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimsim import cli, layout, runtime
from pimsim.cli import RUN_KEYS, SWEEP_KEYS, main
from pimsim.cost import HardwareSpec
from pimsim.dram import AddressMap
from pimsim.errors import ConfigError
from pimsim.layout import (WeightMatrix, address_order, convert_to_pim_aware,
                           model_placements)
from pimsim.model import MAX_LAYERS, ModelSpec
from pimsim.presets import DESK_GEOMETRY, HARDWARE, MODELS, model_preset
from pimsim.scenario import Scenario


def run_cli(*argv):
    return main(list(argv))


def fresh_cli_env():
    """The environment of a fresh ``python -m pimsim.cli`` that imports
    this package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def write_blob(path, model, rng):
    """Column-major little-endian blob, every matrix in model order."""
    parts = []
    for m in model.all_matrices():
        w = rng.integers(0, 1 << 16, size=(m.out_dim, m.in_dim),
                         dtype=np.uint16)
        parts.append(np.asfortranarray(w).reshape(-1, order="F"))
    blob = np.concatenate(parts).astype("<u2")
    blob.tofile(path)
    return parts


def test_convert_round_trip_and_idempotence(tmp_path):
    model = model_preset("toy-64")
    rng = np.random.default_rng(0)
    blob = tmp_path / "weights.bin"
    parts = write_blob(blob, model, rng)
    out1, man1 = tmp_path / "img1.bin", tmp_path / "man1.json"
    out2, man2 = tmp_path / "img2.bin", tmp_path / "man2.json"
    for out, man in ((out1, man1), (out2, man2)):
        assert run_cli("convert", "--model", "toy-64", "--geometry", "desk",
                       "--input", str(blob), "--output", str(out),
                       "--manifest", str(man)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert man1.read_bytes() == man2.read_bytes()
    manifest = json.loads(man1.read_text())
    names = [m["name"] for m in manifest["matrices"]]
    assert names[0] == "layer0.q" and names[-1] == "lm_head"
    # each matrix of the blob is the address-order export of its image,
    # whose addresses tests/test_layout.py checks element by element
    placements = model_placements(model, AddressMap(DESK_GEOMETRY), 16, 1)
    blob_out = np.fromfile(out1, dtype="<u2")
    for entry, (name, p), part in zip(manifest["matrices"], placements, parts):
        w = WeightMatrix(p.out_dim, p.in_dim,
                         part.reshape(p.out_dim, p.in_dim, order="F"))
        image = convert_to_pim_aware(w, p)
        assert (entry["name"], entry["base_addr"], entry["span_bytes"]) == \
            (name, image.base_addr, image.span_bytes)
        start = entry["blob_offset_elements"]
        assert np.array_equal(blob_out[start:start + image.span_bytes // 2],
                              address_order(image))
    assert start + image.span_bytes // 2 == blob_out.size


def test_convert_rejects_truncated_blob(tmp_path, capsys):
    model = model_preset("toy-64")
    blob = tmp_path / "weights.bin"
    np.zeros(model.total_params() - 7, dtype="<u2").tofile(blob)
    code = run_cli("convert", "--model", "toy-64", "--geometry", "desk",
                   "--input", str(blob), "--output",
                   str(tmp_path / "o.bin"), "--manifest",
                   str(tmp_path / "m.json"))
    assert code == 1
    err = capsys.readouterr().err
    assert str(model.total_params()) in err
    # the blob is checked before the image file is opened
    assert not (tmp_path / "o.bin").exists()


def test_convert_rejects_a_blob_with_a_trailing_partial_element(tmp_path, capsys):
    model = model_preset("toy-64")
    blob = tmp_path / "weights.bin"
    blob.write_bytes(bytes(2 * model.total_params() + 1))
    code = run_cli("convert", "--model", "toy-64", "--geometry", "desk",
                   "--input", str(blob), "--output",
                   str(tmp_path / "o.bin"), "--manifest",
                   str(tmp_path / "m.json"))
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: weight blob holds {2 * model.total_params() + 1} bytes")
    assert not (tmp_path / "o.bin").exists()


def test_run_report_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "toy-64", "scenario": "s_ddb",
                               "in_len": 64, "out_len": 8,
                               "timeline": True}))
    outputs = []
    for _ in range(2):
        assert run_cli("run", "--config", str(cfg)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_run_embeds_resolved_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "llama3.2-1b",
                               "scenario": "s_owr", "in_len": 32}))
    assert run_cli("run", "--config", str(cfg)) == 0
    report = json.loads(capsys.readouterr().out)
    rc = report["resolved_config"]
    assert rc["model"]["hidden"] == 2048
    assert rc["hardware"]["dram_bw_gbps"] == 68.264
    assert "parallelism" not in rc
    assert "flop_per_byte" not in rc["hardware"]


def test_run_analytical_overhead_percent(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "llama3.2-1b", "scenario": "s_owr",
                               "in_len": 16, "mode": "analytical"}))
    assert run_cli("run", "--config", str(cfg)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["breakdown"]["overhead_sum_pct"] == 175.0
    assert report["ttft_t_units"] == "7"


def test_run_rejects_bad_scenario(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "bogus"}))
    assert run_cli("run", "--config", str(cfg)) == 1
    assert "scenario" in capsys.readouterr().err


BAD_CONFIGS = {
    "top_level_list": "[1, 2]",
    "invalid_json": '{"model": "toy-64",',
    "unknown_mode": json.dumps({"model": "toy-64", "mode": "fast"}),
    "number_model": json.dumps({"model": 5}),
    "list_hardware": json.dumps({"model": "toy-64", "hardware": [1]}),
    "unknown_model_preset": json.dumps({"model": "llama9-1t"}),
    "unknown_hardware_preset": json.dumps({"model": "toy-64",
                                           "hardware": "pixel99"}),
    "unknown_model_key": json.dumps({"model": {
        "hidden": 64, "intermediate": 256, "layers": 1, "bogus": 1}}),
    "unknown_hardware_key": json.dumps({"model": "toy-64",
                                        "hardware": {"bogus": 1}}),
    "nan_hardware": '{"model": "toy-64", "hardware": {"dram_bw_gbps": NaN}}',
    "zero_denominator_kv_ratio": json.dumps({"model": {
        "hidden": 64, "intermediate": 256, "layers": 1, "kv_ratio": "1/0"}}),
    "overflowing_in_len": '{"model": "toy-64", "in_len": 1e400}',
    # JSON integers that no int64 holds
    **{f"{key}_past_int64": json.dumps({"model": "toy-64", key: 10 ** 400})
       for key in ("in_len", "out_len", "pim_bytes")},
    "non_string_hardware_preset": json.dumps({"model": "toy-64",
                                              "hardware": {"preset": ["x"]}}),
    "string_pim_bytes": json.dumps({"model": "toy-64", "pim_bytes": "12"}),
    "negative_pim_bytes": json.dumps({"model": "toy-64", "out_len": 4,
                                      "pim_bytes": -100000}),
    "fractional_in_len": json.dumps({"model": "toy-64", "in_len": 1.5,
                                     "out_len": 2}),
    "bool_out_len": json.dumps({"model": "toy-64", "out_len": True}),
    "fractional_model_layers": json.dumps({"model": {
        "hidden": 64, "intermediate": 256, "layers": 1.5}}),
    "fractional_model_hidden": json.dumps({"model": {
        "hidden": 64.5, "intermediate": 256, "layers": 1}}),
    "bool_hardware_bandwidth": json.dumps({"model": "toy-64",
                                           "hardware": {"dram_bw_gbps": True}}),
    "negative_model_vocab": json.dumps({"model": {
        "hidden": 64, "intermediate": 256, "layers": 1, "vocab": -5}}),
    "zero_element_bytes": json.dumps({"model": {
        "hidden": 64, "intermediate": 256, "layers": 1, "element_bytes": 0}}),
    "negative_kv_ratio": json.dumps({"model": {
        "hidden": 64, "intermediate": 256, "layers": 1, "kv_ratio": "-1/4"}}),
    "unknown_top_level_key": json.dumps({"model": "toy-64", "inlen": 128}),
    "string_timeline": json.dumps({"model": "toy-64", "timeline": "no"}),
    "string_compute_pim_bytes": json.dumps({"model": "toy-64",
                                            "compute_pim_bytes": "yes"}),
    # valid parameters whose modeled times leave the float range
    "subnormal_gemm_rate": json.dumps({
        "model": "llama3.2-1b", "out_len": 4,
        "hardware": {"gemm_effective_gflops": 1e-320}}),
    "subnormal_dram_bandwidth": json.dumps({
        "model": "toy-64", "scenario": "c_gemm", "out_len": 4,
        "hardware": {"dram_bw_gbps": 5e-324}}),
    "overflowing_attention_seconds": json.dumps({
        "model": "llama3.2-1b",
        "hardware": {"host_attn_seconds_per_layer": 1e308}}),
    # rates that leave the float range once scaled to units per second
    "overflowing_scaled_rates": json.dumps({
        "model": "llama3.2-1b", "out_len": 4,
        "hardware": {"dram_bw_gbps": 1e300, "peak_gflops": 1e300,
                     "gemm_effective_gflops": 1e300}}),
    "overflowing_pim_bandwidth": json.dumps({
        "model": "llama3.2-1b", "hardware": {"pim_bw_multiplier": 1e300}}),
    # the PIM image size is given once, and holds at least every weight
    "pim_bytes_with_compute_pim_bytes": json.dumps({
        "model": "toy-64", "pim_bytes": 10 ** 9, "compute_pim_bytes": True}),
    "pim_bytes_below_the_weight_bytes": json.dumps({
        "model": "llama3.2-1b", "pim_bytes": 5}),
    # models whose weight bytes do not fit in an int64
    "overflowing_kv_ratio": json.dumps({"model": {
        "hidden": 64, "intermediate": 256, "layers": 1, "kv_ratio": 1e308}}),
    "overflowing_layers": json.dumps({"model": {
        "hidden": 64, "intermediate": 256, "layers": 2 ** 63}}),
    # a stack of no layers whose one decoder layer, which every prefill
    # sizes, does not fit in an int64 either
    **{f"overflowing_{name}_kv_ratio_of_no_layer": json.dumps({"model": {
        "hidden": hidden, "intermediate": intermediate, "layers": 0, "kv_ratio": kv}})
       for name, hidden, intermediate, kv in (("string", 32, 4, "1e400"),
                                              ("float", 3, 8, 1e308))},
    # every run visits each layer, so the count is bounded
    "layers_past_the_bound": json.dumps({"model": {
        "hidden": 64, "intermediate": 256, "layers": 2 ** 15 + 1}}),
    # a PIM image of elements that do not divide the 32-byte burst
    **{f"{n}_byte_elements_in_pim_image": json.dumps({
        "model": {"hidden": 64, "intermediate": 256, "layers": 1,
                  "element_bytes": n}, "compute_pim_bytes": True})
       for n in (3, 64)},
}
BAD_RUN_CONFIGS = {
    "sweep_key_on_run": json.dumps({"model": "toy-64", "in_lens": [32, 64]}),
    # the analytical model has no decode, capacity or timeline to use them
    **{f"analytical_with_{key}": json.dumps({"model": "toy-64",
                                             "mode": "analytical", key: value})
       for key, value in (("pim_bytes", 5), ("compute_pim_bytes", True),
                          ("timeline", True))},
    "analytical_with_pim_bytes_and_timeline": json.dumps({
        "model": "toy-64", "mode": "analytical", "pim_bytes": 5,
        "timeline": True}),
}
BAD_SWEEP_CONFIGS = {
    "scalar_in_lens": json.dumps({"model": "toy-64", "in_lens": 5}),
    "fractional_in_lens": json.dumps({"model": "toy-64", "in_lens": [1.5, 2]}),
    "in_lens_past_int64": json.dumps({"model": "toy-64", "in_lens": [10 ** 400]}),
    "analytical_mode": json.dumps({"model": "toy-64", "mode": "analytical"}),
    "timeline_on_sweep": json.dumps({"model": "toy-64", "timeline": True}),
    "in_len_with_in_lens": json.dumps({"model": "toy-64", "in_len": 64,
                                       "in_lens": [32]}),
    "out_len_with_out_lens": json.dumps({"model": "toy-64", "out_len": 4,
                                         "out_lens": [8]}),
    "scenario_with_scenarios": json.dumps({"model": "toy-64",
                                           "scenario": "wd",
                                           "scenarios": ["s_ddb"]}),
    # a present list key is a non-empty list, never a fallback to the scalar
    **{f"{name}_{key}": json.dumps({"model": "toy-64", key: value})
       for key in ("in_lens", "out_lens", "scenarios")
       for name, value in (("zero", 0), ("false", False), ("empty_string", ""),
                           ("empty_list", []), ("null", None))},
}
BAD_CONFIG_CASES = (
    [pytest.param(text, command, id=f"{name}-{command}")
     for command in ("run", "sweep") for name, text in BAD_CONFIGS.items()]
    + [pytest.param(text, "run", id=f"{name}-run")
       for name, text in BAD_RUN_CONFIGS.items()]
    + [pytest.param(text, "sweep", id=f"{name}-sweep")
       for name, text in BAD_SWEEP_CONFIGS.items()])


@pytest.mark.parametrize("text, command", BAD_CONFIG_CASES)
def test_bad_config_is_an_error_not_a_traceback(tmp_path, capsys, command,
                                                text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run_cli(command, "--config", str(cfg)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


# the values a config's key takes: mostly the kind it reads, sometimes any
# other; numbers at the edges of the int64 and float ranges, numeric strings,
# lists and objects
_EDGE = (st.none() | st.booleans()
         | st.sampled_from([-1, 0, 2 ** 63 - 1, 2 ** 63, -2 ** 63, 10 ** 400, 1e308,
                            5e-324, -0.0, 1.5, math.inf, -math.inf, math.nan])
         | st.sampled_from(["1e400", "3/7", "1/4", "12", "-1", "", "nope"]))
_ANY = st.recursive(_EDGE, lambda kids: (st.lists(kids, max_size=3)
                                         | st.dictionaries(st.sampled_from(["preset", "hidden", "x"]),
                                                           kids, max_size=2)), max_leaves=4)


def _or_any(values):
    """``values``, or a value of any kind when a drawn 0-3 is 0."""
    return st.integers(0, 3).flatmap(lambda n: values if n else _ANY)


# layer counts stay small, or pass MAX_LAYERS, so that no example builds a
# long timeline
_LAYERS = st.sampled_from([0, 1, 2, 3, MAX_LAYERS + 1, 2 ** 63])
_DIM = st.sampled_from([1, 3, 7, 32, 64, 2 ** 31, 2 ** 62])
_MODEL = _or_any(st.sampled_from(sorted(MODELS)) | st.fixed_dictionaries(
    {"hidden": _or_any(_DIM), "intermediate": _or_any(_DIM), "layers": _or_any(_LAYERS)},
    optional={"kv_ratio": _or_any(st.sampled_from(["1/4", "3/7", "1e400", 1, 0.25, 1e308])),
              "vocab": _or_any(st.sampled_from([0, 96, 128256, 2 ** 62])),
              "element_bytes": _or_any(st.sampled_from([1, 2, 3, 64, 2 ** 40]))}))
_HARDWARE = _or_any(st.sampled_from(sorted(HARDWARE)) | st.dictionaries(
    st.sampled_from(sorted(HardwareSpec.__dataclass_fields__) + ["preset"]),
    _or_any(st.sampled_from([5e-324, 1e-3, 1.0, 68.264, 321.0, 1e300, 1e308])
            | st.sampled_from(sorted(HARDWARE))), max_size=3))
_LEN = st.sampled_from([0, 1, 2, 32, 1024, 2 ** 63 - 1])
_SCENARIO = st.sampled_from([s.value for s in Scenario] + ["S_DDB"])
_CONFIG_VALUES = {
    "model": _MODEL, "hardware": _HARDWARE,
    "scenario": _or_any(_SCENARIO), "scenarios": _or_any(st.lists(_SCENARIO, max_size=3)),
    "in_len": _or_any(_LEN), "in_lens": _or_any(st.lists(_LEN, max_size=3)),
    "out_len": _or_any(_LEN), "out_lens": _or_any(st.lists(_LEN, max_size=3)),
    "mode": _or_any(st.sampled_from(["calibrated", "analytical"])),
    "pim_bytes": _or_any(st.sampled_from([5, 10 ** 9, 10 ** 10, 2 ** 63 - 1])),
    "compute_pim_bytes": _or_any(st.booleans()), "timeline": _or_any(st.booleans()),
}


@st.composite
def _configs(draw):
    """A command, ``run`` or ``sweep``, and a config of its keys, in JSON; one
    in eight also has a key of the other command only."""
    command = draw(st.sampled_from(["run", "sweep"]))
    keys = sorted(RUN_KEYS if command == "run" else SWEEP_KEYS)
    keys = draw(st.lists(st.sampled_from(keys), unique=True, max_size=6))
    if draw(st.integers(0, 7)) == 0:
        keys.append(draw(st.sampled_from(sorted(RUN_KEYS ^ SWEEP_KEYS))))
    return command, json.dumps({key: draw(_CONFIG_VALUES[key]) for key in keys})


def _numbers(value):
    """Each number in a JSON value, with the key it is under (None in a list)."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from ((key, v),) if isinstance(v, (int, float)) else _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from ((None, v),) if isinstance(v, (int, float)) else _numbers(v)


def _seeded_with_bad_configs(test):
    """``test`` with each of ``BAD_CONFIGS`` as an example, run and sweep."""
    for text in BAD_CONFIGS.values():
        for command in ("run", "sweep"):
            test = example((command, text))(test)
    return test


@settings(max_examples=150, deadline=2000)
@given(_configs())
@_seeded_with_bad_configs
@example(("run", '{"model": {"hidden": 32, "intermediate": 4, "layers": 0, "kv_ratio": "1e400"}}'))
@example(("sweep", '{"model": {"hidden": 3, "intermediate": 8, "layers": 0, "kv_ratio": 1e308}}'))
def test_a_config_exits_0_with_finite_numbers_or_1_with_an_error_line(config):
    """Whatever a config holds, ``main`` exits 0 with finite numbers, but an
    infinite ``decode_tps`` for a model without weights, or 1 with one
    ``error:`` line and no output; no exception escapes it."""
    assert _CONFIG_VALUES.keys() == RUN_KEYS | SWEEP_KEYS  # every key is drawn
    command, text = config
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        cfg = Path(scratch) / "cfg.json"
        cfg.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg)])
    out, err = out.getvalue(), err.getvalue()
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), err
        assert out == ""
        return
    assert code == 0 and err == "", (code, err)
    if command == "sweep":
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(math.isfinite(float(row[key])) for row in rows
                            for key in row if key != "scenario"), out
        return
    report = json.loads(out)
    weights = report["resolved_config"]["model"]
    weights = ModelSpec(**dict(weights, kv_ratio=Fraction(weights["kv_ratio"]))).host_bytes()
    bad = [(key, v) for key, v in _numbers(report) if not math.isfinite(v)]
    # a model without weights decodes in no time, at an infinite rate
    assert bad == [] or (not weights and bad == [("decode_tps", math.inf)]), bad


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_missing_config_file_is_an_error_not_a_traceback(tmp_path, capsys, command):
    assert run_cli(command, "--config", str(tmp_path / "absent.json")) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read config")
    assert captured.out == ""


def test_placement_stops_at_the_first_matrix_past_a_bank(tmp_path, capsys):
    """A model of 30,000 layers is rejected at layer 4,681 without its later
    matrices being placed: the 32,767 matrices of layers 0-4,680 and that
    layer's q and k, of 210,000; listing every layer first took 33 s at
    2,000,000 layers."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": {"hidden": 64, "intermediate": 128,
                                         "layers": 30_000},
                               "compute_pim_bytes": True}))
    with mock.patch.object(layout, "PimPlacement", wraps=layout.PimPlacement) as made:
        assert run_cli("run", "--config", str(cfg)) == 1
    assert made.call_count == 4681 * 7 + 2
    captured = capsys.readouterr()
    assert captured.err == ("error: layer4681.k ends at row 131076, past the "
                            "131072 rows of a bank\n")
    assert captured.out == ""


def test_a_model_past_the_layer_bound_fails_at_once(tmp_path):
    """10**12 layers pass the int64 rule on weight bytes, but every run
    visits each layer: unbounded, such a run did not end in 10 s."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": {"hidden": 64, "intermediate": 128,
                                         "layers": 10 ** 12},
                               "scenario": "s_ddb"}))
    done = subprocess.run([sys.executable, "-m", "pimsim.cli", "run", "--config", str(cfg)],
                          capture_output=True, text=True, env=fresh_cli_env(), timeout=2)
    assert done.returncode == 1
    assert done.stderr == f"error: model layers must be at most {MAX_LAYERS}, got {10 ** 12}\n"
    assert done.stdout == ""


# a sweep at each bound of its grid, and the one axis that takes it just past:
# scenarios x in_lens x layers prefill layers, and scenarios x in_lens x
# out_lens rows
GRID_BOUNDS = {
    "prefill-layers": (
        {"model": {"hidden": 64, "intermediate": 128, "layers": runtime.MAX_GRID_LAYERS // 64},
         "scenarios": ["c_gemm"], "in_lens": list(range(1, 65))},
        "model", {"hidden": 64, "intermediate": 128, "layers": runtime.MAX_GRID_LAYERS // 64 + 1},
        "error: grid has scenarios x in_lens x layers = 1 x 64 x 16385 = 1048640 prefill "
        "layers, above 1048576\n"),
    "rows": (
        {"model": "toy-64", "scenarios": ["wd"], "in_len": 8,
         "out_lens": list(range(runtime.MAX_GRID_ROWS))},
        "out_lens", list(range(runtime.MAX_GRID_ROWS + 1)),
        "error: grid has scenarios x in_lens x out_lens = 1 x 1 x 32769 = 32769 rows, "
        "above 32768\n"),
}


@pytest.mark.parametrize("at_bound, key, past, message", GRID_BOUNDS.values(),
                         ids=GRID_BOUNDS.keys())
def test_a_sweep_past_its_grid_bound_fails_before_any_prefill(tmp_path, capsys, at_bound, key,
                                                              past, message):
    """A grid at the bound is swept; one layer or one out_len more is an
    ``error:`` line and exit 1 in under a second, with no prefill, no
    stdout and no ``--output`` file."""
    cfg, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    cfg.write_text(json.dumps(at_bound))
    assert run_cli("sweep", "--config", str(cfg), "--output", str(out)) == 0
    points = len(at_bound["scenarios"]) * len(at_bound.get("in_lens", [8]))
    assert len(out.read_text().splitlines()) == 1 + points * len(at_bound.get("out_lens", [0]))
    assert capsys.readouterr() == ("", "")
    out.unlink()
    cfg.write_text(json.dumps({**at_bound, key: past}))
    with mock.patch.object(runtime, "run_prefill", wraps=runtime.run_prefill) as prefill:
        start = time.perf_counter()
        assert run_cli("sweep", "--config", str(cfg), "--output", str(out)) == 1
        assert time.perf_counter() - start < 1
    assert prefill.call_count == 0
    assert capsys.readouterr() == ("", message)
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_pim_bytes_of_exactly_the_weights_is_accepted(tmp_path, capsys,
                                                      command):
    cfg = tmp_path / "cfg.json"
    model = model_preset("toy-64")
    cfg.write_text(json.dumps({"model": "toy-64", "out_len": 4,
                               "pim_bytes": model.host_bytes(),
                               "compute_pim_bytes": False}))
    assert run_cli(command, "--config", str(cfg)) == 0
    assert capsys.readouterr().err == ""


def test_a_model_without_weights_decodes_at_an_infinite_rate(tmp_path,
                                                             capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": {"hidden": 64, "intermediate": 256,
                                         "layers": 0, "vocab": 0},
                               "out_len": 4}))
    assert run_cli("run", "--config", str(cfg)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decode_tps"] == math.inf
    assert report["ttft_seconds"] == report["total_seconds"] == 0.0


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 2 ** 70


# keys with non-ASCII, quote, backslash and control characters
_JSON_KEYS = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028') | st.characters())
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 64)
                 | st.integers(max_value=-2 ** 64) | st.floats() | st.builds(np.float64, st.floats())
                 | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
                 | st.sampled_from(list(_Level)) | _JSON_KEYS)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS, lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                                 | st.dictionaries(_JSON_KEYS, kids)), max_leaves=20)


def _indent_2(value):
    return json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=150, deadline=None)
@given(_JSON_VALUES)
@example({"a": {}, "b": [], "c": (), "d": [{"e": [[]]}], "\u00e9\"\\": {"": None}})
def test_json_text_is_the_bytes_of_indented_sorted_json(value):
    assert cli._json_text(value) == _indent_2(value)


@settings(max_examples=30, deadline=None)
@given(_JSON_VALUES, st.sampled_from([set(), {1}, frozenset(), Fraction(1, 3)]),
       st.sampled_from(["list", "dict", "alone"]))
def test_json_text_raises_what_json_raises_for_no_json_value(value, bad, where):
    """A value that is no JSON, at any depth, raises ``json``'s TypeError."""
    value = {"list": [value, bad], "dict": {"k": value, "z": bad}, "alone": bad}[where]
    messages = []
    for write in (cli._json_text, _indent_2):
        with pytest.raises(TypeError) as raised:
            write(value)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("config, count", [
    ({"model": {"hidden": 64, "intermediate": 128, "layers": 0, "vocab": 0}}, 0),
    ({"model": {"hidden": 64, "intermediate": 128, "layers": 0, "vocab": 96},
      "scenario": "wd"}, 1),
    ({"model": "toy-64", "scenario": "s_ddb", "in_len": 8, "out_len": 2}, 16),
], ids=["no-rows", "one-row", "many-rows"])
def test_streamed_timeline_report_is_the_bytes_of_indented_sorted_json(
        tmp_path, capsys, config, count):
    """The pieces of a timeline report, joined, are the text of the whole
    report, rows included, and ``--output`` gets the bytes of stdout."""
    config = dict(config, timeline=True)
    report, rows = cli._point_report(config)
    placeholder = cli._json_text(report) + "\n"
    rows = list(rows)
    assert report.pop("timeline") == [] and len(rows) == count
    assert report["resolved_config"]["timeline"] is True
    want = _indent_2(dict(report, timeline=rows)) + "\n"
    assert "".join(cli._report_pieces(placeholder, iter(rows))) == want
    cfg, out = tmp_path / "run.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(cfg), "--output", str(out)) == 0
    assert capsys.readouterr().out == out.read_text() == want


def test_a_timeline_that_fails_its_check_writes_no_byte(tmp_path, capsys,
                                                       monkeypatch):
    """The steps are checked before the report is written: overlapping steps
    give an error line, exit 1, no stdout and no ``--output`` file."""
    def overlapping(*args):
        yield "compute", 0, "q", 0.0, 2.0, 0
        yield "compute", 0, "k", 1.0, 3.0, 0
    monkeypatch.setattr(runtime, "build_ddb_schedule", overlapping)
    cfg, out = tmp_path / "run.json", tmp_path / "out.json"
    cfg.write_text(json.dumps({"model": "toy-64", "timeline": True}))
    assert run_cli("run", "--config", str(cfg), "--output", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: overlapping segments for compute: "
                            "layer0.q and layer0.k\n")
    assert captured.out == "" and not out.exists()


# sha256 of the concatenated stdout of each variant's configs, in order
REPORT_DIGESTS = {
    "plain": "3e819a5482ab45c79f0344cd5258df6dc0a74d58a08dd6ffd7389669dda9a586",
    "timeline": "313e7b7bdd776ae74c6b0cce8d5beac193270770e5a924edc54d5cefc5856330",
    "analytical": "e3bb7fd7abbbce887e87d66748e60e639195817a17c64200e4036425d9eb0509",
    "sweep": "44367427935f0aef3f36d7a8ddd2344156ff7a0444eb6dd5156f1cfbd052d0cc",
    "hardware": "904fc8d7adbbdb0277f1b6061c8a4deb05f04ea41cdea294cc81919b2c3e62ee",
}
REPORT_MODELS = ("llama3.2-1b", "llama3.2-3b", "toy-64")
REPORT_IN_LENS = (1, 75, 128, 1024)
RUN_VARIANTS = {"plain": {},
                "timeline": {"timeline": True, "compute_pim_bytes": True},
                "analytical": {"mode": "analytical"}}
# host attention and a stack without layers or without a head
HARDWARE_MODELS = ("llama3.2-1b", "toy-64",
                   {"hidden": 2048, "intermediate": 8192, "layers": 0,
                    "vocab": 128256},
                   {"hidden": 64, "intermediate": 256, "layers": 2})


def report_configs(variant):
    """(command, config) of every output one digest covers."""
    if variant == "sweep":
        return [("sweep", {"model": model,
                           "scenarios": [s.value for s in Scenario],
                           "in_lens": list(REPORT_IN_LENS),
                           "out_lens": [0, 8, 128],
                           "compute_pim_bytes": True})
                for model in REPORT_MODELS]
    if variant == "hardware":
        return [("run", {"model": model, "hardware": hw, "timeline": True,
                         "scenario": scenario.value, "in_len": in_len,
                         "out_len": 8})
                for model in HARDWARE_MODELS
                for hw in ({"host_attn_seconds_per_layer": 1e-3}, "ideal-bw")
                for scenario in Scenario for in_len in (1, 75, 1024)]
    return [("run", dict(RUN_VARIANTS[variant], model=model,
                         scenario=scenario.value, in_len=in_len, out_len=8))
            for model in REPORT_MODELS for scenario in Scenario
            for in_len in REPORT_IN_LENS]


@pytest.mark.parametrize("variant", list(REPORT_DIGESTS))
def test_modeled_clock_output_matches_its_pinned_digest(tmp_path, capsys,
                                                        variant):
    """Every byte of these reports and sweeps: a change that moves one must
    update the pin on purpose."""
    cfg = tmp_path / "cfg.json"
    digest = hashlib.sha256()
    for command, config in report_configs(variant):
        cfg.write_text(json.dumps(config))
        assert run_cli(command, "--config", str(cfg)) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == REPORT_DIGESTS[variant]


@pytest.mark.parametrize("argv", [
    ["convert", "--model", "toy-64", "--input", "{missing}/w.bin",
     "--output", "{tmp}/o.bin", "--manifest", "{tmp}/m.json"],
    ["run", "--config", "{cfg}", "--output", "{missing}/x.json"],
    ["sweep", "--config", "{cfg}", "--output", "{missing}/x.csv"],
], ids=["convert-input", "run-output", "sweep-output"])
def test_file_error_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "toy-64"}))
    argv = [a.format(tmp=tmp_path, missing=tmp_path / "missing", cfg=cfg)
            for a in argv]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_covers_grid_and_matches_run(tmp_path, capsys):
    """Every cell of a sweep is the value the matching ``run`` reports."""
    scenarios = ["wd", "facil_o", "s_ddb", "s_owr", "c_gemm", "nc_gemm"]
    common = {"model": "llama3.2-1b", "compute_pim_bytes": True}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(dict(common, scenarios=scenarios,
                                   in_lens=[1, 96], out_lens=[0, 16])))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg), "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,in_len,out_len,ttft_seconds")
    rows = list(csv.DictReader(lines))
    assert [(r["scenario"], r["in_len"], r["out_len"]) for r in rows] == [
        (s, str(i), str(o)) for s in scenarios for i in (1, 96)
        for o in (0, 16)]
    run_cfg = tmp_path / "run.json"
    for row in rows:
        run_cfg.write_text(json.dumps(dict(
            common, scenario=row["scenario"], in_len=int(row["in_len"]),
            out_len=int(row["out_len"]))))
        assert run_cli("run", "--config", str(run_cfg)) == 0
        report = json.loads(capsys.readouterr().out)
        assert row == {key: str(report[key]) for key in row}


def test_each_prefill_and_decode_is_evaluated_once(tmp_path, monkeypatch,
                                                   capsys):
    calls = Counter()

    def count(name):
        original = getattr(runtime, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in ("run_prefill", "run_decode", "layer_plan",
                 "build_ddb_schedule", "_serial_steps"):
        counted = count(name)
        for module in (runtime, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    decode_token_time = runtime.decode_token_time

    def counted_token_time(model, hw, use_pim, **kwargs):
        calls["decode_token_time", use_pim] += 1
        return decode_token_time(model, hw, use_pim, **kwargs)
    for module in (runtime, cli):
        monkeypatch.setattr(module, "decode_token_time", counted_token_time)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "model": "llama3.2-1b", "compute_pim_bytes": True,
        "scenarios": ["wd", "facil_o", "s_ddb", "s_owr", "c_gemm", "nc_gemm"],
        "in_lens": [1, 16, 64, 128, 192], "out_lens": [0, 1, 32, 256]}))
    assert run_cli("sweep", "--config", str(cfg)) == 0
    # the host token time: one baseline, plus C_GEMM's own four decodes;
    # no timeline is built, S_DDB's included: its TTFT and copy time need
    # no segments, so no step tuple is made
    assert calls == {"run_prefill": 6 * 5, "run_decode": 6 * 4,
                     "layer_plan": 6 * 5,
                     ("decode_token_time", False): 1 + 4,
                     ("decode_token_time", True): 5 * 4}
    reports = {}
    for scenario, extra, token_times, schedules in (
            ("s_ddb", {}, {True: 1, False: 1}, {}),
            # one pass validates the steps, a second streams them as rows
            ("s_ddb", {"timeline": True}, {True: 1, False: 1},
             {"build_ddb_schedule": 2}),
            ("c_gemm", {}, {False: 2}, {}),
            ("wd", {}, {True: 1, False: 1}, {}),
            ("wd", {"timeline": True}, {True: 1, False: 1},
             {"_serial_steps": 2})):
        calls.clear()
        cfg.write_text(json.dumps({"model": "llama3.2-1b",
                                   "scenario": scenario, "in_len": 64,
                                   "out_len": 8, **extra}))
        capsys.readouterr()
        assert run_cli("run", "--config", str(cfg)) == 0
        assert calls == {"run_prefill": 1, "run_decode": 1, "layer_plan": 1,
                         **schedules,
                         **{("decode_token_time", use_pim): n
                            for use_pim, n in token_times.items()}}
        reports[scenario, bool(extra)] = json.loads(capsys.readouterr().out)
    # the timeline adds only its rows: WD's GEMMs back to back, then the head
    plain, timed = reports["wd", False], reports["wd", True]
    rows = timed.pop("timeline")
    assert {k: v for k, v in timed.items() if k != "resolved_config"} \
        == {k: v for k, v in plain.items() if k != "resolved_config"}
    model = model_preset("llama3.2-1b")
    assert [r["layer"] for r in rows] \
        == [f"layer{n}.{m}" for n in range(model.layers)
            for m in ("q", "k", "v", "o", "ff0", "ff1", "ff2")] + ["lm_head"]
    assert {r["agent"] for r in rows} == {"compute"}
    assert rows[0]["start"] == 0.0
    assert all(a["end"] == b["start"] for a, b in zip(rows, rows[1:]))
    assert rows[-1]["end"] == pytest.approx(timed["ttft_seconds"], rel=1e-12)


def test_gemv_check_passes_by_default(capsys):
    assert run_cli("gemv-check", "--seed", "3", "--trials", "3") == 0
    assert "ok: 3 trials passed" in capsys.readouterr().out


def test_gemv_check_corrupt_order_fails(capsys):
    assert run_cli("gemv-check", "--seed", "3", "--trials", "3",
                   "--corrupt-mac-order") == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_gemv_check_cacheable_reports_integrity_failure(capsys):
    assert run_cli("gemv-check", "--seed", "3", "--trials", "2",
                   "--cacheable") == 2
    assert "pim-blocked" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_gemv_check_rejects_fewer_than_one_trial(capsys, trials):
    assert run_cli("gemv-check", "--trials", trials) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("argv, named", [
    (["run"], "--config"), (["bogus"], "'bogus'"), (["gemv-check", "--trials", "x"], "'x'"),
    (["convert", "--model", "toy-64", "--geometry", "nope", "--input", "w.bin",
      "--output", "o.bin", "--manifest", "m.json"], "unknown geometry preset 'nope'"),
], ids=["run-without-config", "unknown-command", "non-integer-trials", "unknown-geometry"])
def test_usage_error_exits_1_with_an_error_line(capsys, argv, named):
    """Exit code 2 is kept for a failed check; the error line names what
    is wrong."""
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and named in captured.err.splitlines()[0]
    assert captured.out == ""


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """Calls in one process print, write and exit exactly as each would in
    a fresh ``python -m pimsim.cli``, and the parser is built once."""
    (tmp_path / "a.json").write_text(json.dumps(
        {"model": "toy-64", "scenario": "s_owr", "in_len": 16, "out_len": 4}))
    (tmp_path / "b.json").write_text(json.dumps(
        {"model": "llama3.2-1b", "scenario": "wd", "in_len": 64,
         "out_len": 8}))
    f = tmp_path / "f.json"
    calls = [["run"],
             ["run", "--config", str(tmp_path / "a.json"), "--output", str(f)],
             ["run", "--config", str(tmp_path / "b.json")],
             ["gemv-check", "--seed", "0", "--trials", "1"],
             ["run", "--config", str(tmp_path / "a.json"), "extra"],
             ["nope"]]
    env = fresh_cli_env()

    def written():
        return f.read_text() if f.exists() else None

    fresh = []  # exit code, stdout, stderr and f after each call
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "pimsim.cli", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path)
        fresh.append((done.returncode, done.stdout, done.stderr, written()))
    assert fresh[0][0] == 1 and fresh[0][2].startswith("error:")
    assert fresh[2][3] == fresh[1][3] == fresh[1][1]  # b writes nothing
    cli.build_parser.cache_clear()
    for _ in range(3):
        f.unlink()
        for argv, expected in zip(calls, fresh):
            code = run_cli(*argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err, written()) == expected
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pimsim")


def _recording_parser():
    """A parser of its own whose subcommands return their namespace instead
    of running, so that ``main`` returns what it parsed."""
    parser = cli.build_parser.__wrapped__()
    for command in parser.commands.values():
        command.set_defaults(func=lambda args: args)
    return parser


def _outcome(call, argv):
    """The namespace but its ``command``, 1 for a usage error or the
    ``SystemExit`` code, with what the call printed; a ``ConfigError``
    prints the error line that ``main`` prints for it."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = call(argv)
    except ConfigError as exc:
        result = 1
        err.write(f"error: {exc}\n")
    except SystemExit as exc:
        result = ("exit", exc.code)
    if isinstance(result, argparse.Namespace):
        result = {k: v for k, v in vars(result).items() if k != "command"}
    return result, out.getvalue(), err.getvalue()


_RECORDING = _recording_parser()
_COMMANDS = sorted(_RECORDING.commands)
_OPTIONS = sorted({option for command in _RECORDING.commands.values()
                   for option in command._option_string_actions})
_OPTION = st.sampled_from(_OPTIONS)
_VALUE = (st.integers(-99, 99).map(str)
          | st.sampled_from(["", "a.json", "out/r.json", "-", "toy-64"]))
_TOKEN = (st.sampled_from(_COMMANDS + ["nope", "-h", "--", "extra", "-x"])
          | _OPTION
          | _OPTION.flatmap(lambda o: st.sampled_from(
              [o[:n] for n in range(1, len(o))]))  # abbreviations, "-" and "--"
          | st.builds(lambda o, v: f"{o}={v}", _OPTION, _VALUE)
          | _VALUE)


@settings(max_examples=400, deadline=None)
@given(st.builds(lambda first, rest: [first] + rest,
                 st.sampled_from(_COMMANDS) | _TOKEN, st.lists(_TOKEN, max_size=6))
       | st.lists(_TOKEN, max_size=3))
@example(["run", "--config=a.json"])
@example(["run", "--conf", "a.json"])
@example(["run", "--", "--config", "a.json"])
@example(["run", "--config", "a.json", "--config", "b.json"])
@example(["run", "--config"])
@example(["run", "--config", "a.json", "extra", "-1"])
@example(["gemv-check", "-x"])
@example(["nope", "--config", "a.json"])
@example([])
@example(["-h"])
@example(["run", "-h"])
@example(["gemv-check", "--seed=1", "--cache"])
@example(["gemv-check", "--seed", "-1", "--trials", "-2"])
@example(["--", "run", "--config", "a.json"])
def test_main_parses_as_the_two_level_parser_does(argv):
    """``main`` parses a command line once, with its subcommand's parser,
    and gives the namespace, error or exit the top-level parser gives."""
    with mock.patch.object(cli, "build_parser", lambda: _RECORDING):
        got = _outcome(main, argv)
    # the reference: the top-level parser matches the subcommand and hands
    # the rest to that subcommand's parser; a leading "--" before more gets
    # 3.11's answer, which newer argparse releases no longer give
    want = ((1, "", LEADING_DASHES) if argv[:1] == ["--"] and argv[1:]
            else _outcome(_RECORDING.parse_args, argv))
    assert got == want


LEADING_DASHES = ("error: pimsim: argument command: invalid choice: '--' "
                  "(choose from 'convert', 'run', 'sweep', 'gemv-check')\n")


def test_a_leading_double_dash_is_an_invalid_command(capsys):
    """A line that starts with "--" and goes on names "--" as its command on
    every Python, whatever its argparse does with it; "--" alone names none."""
    assert run_cli("--", "run", "--config", "toy.json") == 1
    assert capsys.readouterr() == ("", LEADING_DASHES)
    assert run_cli("--") == 1
    assert capsys.readouterr() == (
        "", "error: pimsim: the following arguments are required: command\n")


def test_a_subcommand_line_is_parsed_once(tmp_path, monkeypatch, capsys):
    """A command line that starts with a subcommand's name never goes
    through the top-level parser's ``parse_known_args``, extras included."""
    write_blob(tmp_path / "w.bin", model_preset("toy-64"), np.random.default_rng(0))
    (tmp_path / "a.json").write_text(json.dumps({"model": "toy-64"}))
    top = cli.build_parser()
    parse_known_args = cli._Parser.parse_known_args

    def guarded(self, *args, **kwargs):
        assert self is not top, "the top-level parser parsed a subcommand's line"
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", guarded)
    cfg = str(tmp_path / "a.json")
    for code, argv in [
            (0, ["run", "--config", cfg]), (0, ["sweep", "--config", cfg]),
            (0, ["convert", "--model", "toy-64", "--input", str(tmp_path / "w.bin"),
                 "--output", str(tmp_path / "o.bin"),
                 "--manifest", str(tmp_path / "m.json")]),
            (0, ["gemv-check", "--trials", "1"]),
            (1, ["run", "--config", cfg, "extra"]), (1, ["sweep"])]:
        assert run_cli(*argv) == code
    assert capsys.readouterr().err.splitlines() == [
        "error: pimsim: unrecognized arguments: extra",
        "error: pimsim sweep: the following arguments are required: --config"]
