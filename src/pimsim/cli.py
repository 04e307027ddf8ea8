"""Command-line front end.

Subcommands
-----------
``convert``
    Offline model conversion: a raw host-friendly weight blob (every
    matrix concatenated in model order, column-major, little-endian
    elements) becomes a JSON manifest plus a PIM-aware image blob that
    holds each matrix in address order from its ``base_addr``.
``run``
    One scenario at one (in_len, out_len) point; JSON report with the
    fully resolved configuration embedded.
``sweep``
    A CSV grid of calibrated seconds over input/output lengths and
    scenarios.
``gemv-check``
    Seeded battery of functional GEMVs through the command-trace engine,
    checked against a host oracle and the trigger-count formula.

Every indented JSON output, a ``run`` report and a ``convert`` manifest, is
the bytes of ``json.dumps(value, sort_keys=True, indent=2)``: ``_json_text``
writes them, and ``_report_pieces`` a timeline report's rows one at a time.

Exit codes: 0 success, 1 usage or configuration error, 2 a check failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bf16
from .cost import (HardwareSpec, analytical_prefill, capacity_report,
                   decode_token_time)
from .dram import AddressMap
from .engine import GemvJob, PimGemvEngine
from .errors import ConfigError, SimulatorError, check_int
from .layout import (PimPlacement, WeightMatrix, address_order,
                     convert_to_pim_aware, model_placements)
from .memsys import Attribute, CacheConfig, MemorySystem, RegionKind
from .model import ModelSpec
from .presets import (geometry_preset, hardware_preset, model_preset,
                      pim_weight_bytes)
from .runtime import (end_to_end_grid, end_to_end_row, run_decode,
                      run_prefill)
from .scenario import Scenario


# ----------------------------------------------------------------------
# Config resolution
# ----------------------------------------------------------------------

RUN_KEYS = frozenset({"model", "hardware", "scenario", "in_len", "out_len",
                      "mode", "pim_bytes", "compute_pim_bytes", "timeline"})
# a sweep reports calibrated seconds per point, and no timeline
SWEEP_KEYS = (RUN_KEYS - {"timeline"}) | {"in_lens", "out_lens", "scenarios"}
# the analytical model is in t-units: no decode, capacity or timeline
CALIBRATED_ONLY_KEYS = frozenset({"pim_bytes", "compute_pim_bytes",
                                  "timeline"})


def _load_config(path: str, keys: frozenset) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = sorted(set(cfg) - keys)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; accepted: "
                          f"{sorted(keys)}")
    return cfg


def _resolve_model(spec) -> ModelSpec:
    if isinstance(spec, str):
        return model_preset(spec)
    if isinstance(spec, dict):
        kwargs = dict(spec)
        if "kv_ratio" in kwargs:
            try:
                kwargs["kv_ratio"] = Fraction(str(kwargs["kv_ratio"]))
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"invalid kv_ratio: {exc}") from None
        try:
            return ModelSpec(**kwargs)
        except TypeError as exc:  # unknown or missing keys, mistyped values
            raise ConfigError(f"invalid model object: {exc}") from None
    raise ConfigError("model must be a preset name or a parameter object")


def _resolve_hardware(spec) -> HardwareSpec:
    if spec is None:
        return hardware_preset("s24plus")
    if isinstance(spec, str):
        return hardware_preset(spec)
    if isinstance(spec, dict):
        kwargs = dict(spec)
        preset = kwargs.pop("preset", "s24plus")
        if not isinstance(preset, str):
            raise ConfigError(f"hardware preset must be a name, got {preset!r}")
        base = hardware_preset(preset)
        try:
            return replace(base, **kwargs)
        except TypeError as exc:  # unknown keys, mistyped values
            raise ConfigError(f"invalid hardware object: {exc}") from None
    raise ConfigError("hardware must be a preset name or a parameter object")


def _resolve_scenario(name: str) -> Scenario:
    try:
        return Scenario(str(name).lower())
    except ValueError:
        raise ConfigError(f"unknown scenario {name!r}; choose from "
                          f"{[s.value for s in Scenario]}") from None


def _bool_field(cfg: dict, key: str) -> bool:
    value = cfg.get(key, False)
    if type(value) is not bool:
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _axis(cfg: dict, key: str, default) -> list:
    """Values of one grid axis: the non-empty list under ``key + "s"`` if
    the config has it, else the scalar ``key``."""
    many = key + "s"
    if many not in cfg:
        return [cfg.get(key, default)]
    if key in cfg:
        raise ConfigError(f"give {key} or {many}, not both")
    values = cfg[many]
    if not isinstance(values, list):
        raise ConfigError(f"{many} must be a list, got {values!r}")
    if not values:
        raise ConfigError(f"{many} must not be empty")
    return values


def _resolve(cfg: dict):
    """Model, hardware, mode, PIM bytes, timeline flag and the (scenarios,
    in_lens, out_lens) axes of a run or sweep; a run's axes hold one value."""
    model = _resolve_model(cfg.get("model", "llama3.2-1b"))
    hw = _resolve_hardware(cfg.get("hardware"))
    axes = ([_resolve_scenario(s) for s in _axis(cfg, "scenario", "s_ddb")],
            [check_int("in_len", n) for n in _axis(cfg, "in_len", 32)],
            [check_int("out_len", n, 0) for n in _axis(cfg, "out_len", 0)])
    mode = cfg.get("mode", "calibrated")
    if mode not in ("calibrated", "analytical"):
        raise ConfigError(f"unknown mode {mode!r}; use calibrated or analytical")
    compute_pim_bytes = _bool_field(cfg, "compute_pim_bytes")
    pim_bytes = cfg.get("pim_bytes")  # checked where the decode and capacity models read it
    timeline = _bool_field(cfg, "timeline")
    unused = sorted(CALIBRATED_ONLY_KEYS & cfg.keys())
    if mode == "analytical" and unused:
        raise ConfigError(f"mode 'analytical' reports t-units only and takes "
                          f"no {unused}")
    if pim_bytes is not None and compute_pim_bytes:
        raise ConfigError("give pim_bytes or compute_pim_bytes, not both")
    if compute_pim_bytes:
        pim_bytes = pim_weight_bytes(model)
    return model, hw, mode, pim_bytes, timeline, axes


_MODEL_FIELDS = tuple(f.name for f in fields(ModelSpec))


def _resolved_config(cfg: dict, model: ModelSpec, hw: HardwareSpec) -> dict:
    """Fully resolved, JSON-serializable copy of the effective configuration."""
    out = dict(cfg)
    out["model"] = {name: getattr(model, name) for name in _MODEL_FIELDS}
    out["model"]["kv_ratio"] = str(model.kv_ratio)
    out["hardware"] = {k: v for k, v in vars(hw).items()}
    out.setdefault("mode", "calibrated")
    return out


# ----------------------------------------------------------------------
# JSON text
# ----------------------------------------------------------------------

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# each scalar's JSON text, by exact type
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
                float: _float_text, bool: {True: "true", False: "false"}.get,
                type(None): lambda _: "null"}


def _json_text(value) -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``.

    With an ``indent``, ``json`` before CPython 3.13 (gh-95382) takes its
    pure-Python encoder, which yields every token from a generator.  This
    joins each container once and looks up a scalar's text by its exact
    type; any other value takes ``json``'s isinstance order and its
    ``TypeError``.  A key must be a str.  The gain was measured on CPython
    3.11 only; once the oldest supported CPython encodes ``indent`` in C,
    ``json.dumps`` itself is to replace this writer.
    """
    return _indented(value, "\n")


def _indented(value, newline: str) -> str:
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    # no type is both a dict and a str, int, float, list or tuple, so this
    # test may come first: a report is mostly dicts
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        # a scalar's text is looked up here, which saves a call per scalar;
        # encode_basestring_ascii raises TypeError for a key that is no str
        items = [encode_basestring_ascii(k) + ": "
                 + (text(v) if (text := _SCALAR_TEXT.get(type(v := value[k])))
                    else _indented(v, inner))
                 for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [text(v) if (text := _SCALAR_TEXT.get(type(v))) else _indented(v, inner)
                 for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ----------------------------------------------------------------------
# convert
# ----------------------------------------------------------------------

def cmd_convert(args) -> int:
    model = _resolve_model(args.model)
    geometry = geometry_preset(args.geometry)
    amap = AddressMap(geometry)
    placements = model_placements(model, amap,
                                  banks_per_channel=geometry.banks_per_rank,
                                  channels_used=geometry.channels)
    expected = model.total_params()
    # checked in bytes: reading whole elements would drop a trailing odd byte
    size = os.path.getsize(args.input)
    if size != 2 * expected:
        raise ConfigError(f"weight blob holds {size} bytes, model needs "
                          f"{2 * expected} ({expected} elements)")
    blob = np.fromfile(args.input, dtype="<u2")
    manifest = {"model": args.model, "geometry": args.geometry,
                "element_bytes": model.element_bytes, "matrices": []}
    offset = image_offset = 0
    # each matrix is written as it is converted, so one image is held at a time
    with open(args.output, "wb") as fh:
        for name, p in placements:
            n = p.out_dim * p.in_dim
            data = blob[offset:offset + n].reshape(p.in_dim, p.out_dim).T
            offset += n
            w = WeightMatrix(p.out_dim, p.in_dim, np.ascontiguousarray(data))
            img = convert_to_pim_aware(w, p)
            image = address_order(img)
            image.astype("<u2").tofile(fh)
            manifest["matrices"].append({
                "name": name, "out_dim": p.out_dim, "in_dim": p.in_dim,
                "m_pad": p.m_pad, "k_pad": p.k_pad, "base_row": p.base_row,
                "base_addr": img.base_addr, "span_bytes": img.span_bytes,
                "blob_offset_elements": image_offset,
            })
            image_offset += image.size
    with open(args.manifest, "w") as fh:
        fh.write(_json_text(manifest) + "\n")
    print(f"converted {len(placements)} matrices -> {args.output}")
    return 0


# ----------------------------------------------------------------------
# run / sweep
# ----------------------------------------------------------------------

def _point_report(cfg: dict):
    """A run's report, and its timeline's validated rows or None."""
    model, hw, mode, pim_bytes, timeline, axes = _resolve(cfg)
    [scenario], [in_len], [out_len] = axes
    report = {"resolved_config": _resolved_config(cfg, model, hw),
              "scenario": scenario.value, "in_len": in_len, "out_len": out_len}
    if mode == "analytical":
        ttft, breakdown = analytical_prefill(scenario, in_len, hw)
        report["ttft_t_units"] = str(ttft)
        report["breakdown"] = {k: (str(v) if isinstance(v, Fraction) else v)
                               for k, v in breakdown.items()}
        return report, None
    prefill = run_prefill(scenario, model, hw, in_len)
    decode = run_decode(scenario, model, hw, out_len, pim_bytes=pim_bytes)
    report.update(end_to_end_row(prefill, decode,
                                 decode_token_time(model, hw, False)))
    report["breakdown"] = prefill.breakdown
    if pim_bytes is not None:
        report["capacity"] = capacity_report(model, scenario, pim_bytes)
    report["decode_tps"] = decode.tps
    rows = prefill.timeline() if timeline else None
    if rows is not None:
        report["timeline"] = []
    return report, rows


def _report_pieces(text: str, rows):
    """``text``, a report's JSON text, with each of ``rows`` written in place
    of its top-level ``"timeline": []``, one piece per row."""
    head, key, tail = text.partition('\n  "timeline": []')
    yield head
    n = 0
    for n, row in enumerate(rows, 1):  # key[:-1] opens the list
        yield ("," if n > 1 else key[:-1]) + "\n    " + _indented(row, "\n    ")
    yield ("\n  ]" if n else key) + tail


def cmd_run(args) -> int:
    report, rows = _point_report(_load_config(args.config, RUN_KEYS))
    text = _json_text(report) + "\n"
    pieces = (text,) if rows is None else _report_pieces(text, rows)
    with open(args.output, "w") if args.output else nullcontext() as out:
        for piece in pieces:
            if out:
                out.write(piece)
            sys.stdout.write(piece)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, SWEEP_KEYS)
    if cfg.get("mode", "calibrated") != "calibrated":
        raise ConfigError("sweep reports calibrated seconds only; "
                          f"got mode {cfg['mode']!r}")
    model, hw, _, pim_bytes, _, axes = _resolve(cfg)
    rows = end_to_end_grid(model, hw, *axes, pim_bytes=pim_bytes)
    fieldnames = ["scenario", "in_len", "out_len", "ttft_seconds",
                  "token_seconds", "total_seconds", "speedup_vs_c_gemm"]
    with (open(args.output, "w", newline="") if args.output
          else nullcontext(sys.stdout)) as out:
        writer = csv.DictWriter(out, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return 0


# ----------------------------------------------------------------------
# gemv-check
# ----------------------------------------------------------------------

ROGUE_PERIOD = 64  # reads per read of the prefetcher that --rogue-prefetcher adds


def _random_gemv_trial(rng: np.random.Generator, cacheable: bool, rogue: bool,
                       corrupt_mac_order: bool) -> dict:
    geometry = geometry_preset("desk")
    amap = AddressMap(geometry)
    out_dim = int(rng.integers(1, 3)) * 16 * 4  # multiples of one tile group
    in_dim = int(rng.integers(1, 3)) * 128
    p = PimPlacement(amap, out_dim, in_dim, banks_per_channel=4,
                     channels_used=1)
    w_int = rng.integers(-3, 4, size=(out_dim, in_dim))
    x_int = rng.integers(-3, 4, size=in_dim)
    w = WeightMatrix(out_dim, in_dim, bf16.encode(w_int.astype(np.float32)))
    img = convert_to_pim_aware(w, p)
    mem = MemorySystem(capacity=geometry.total_capacity + (1 << 20),
                       cache=CacheConfig(capacity=1 << 21),
                       rogue_period=ROGUE_PERIOD if rogue else None)
    attr = Attribute.CACHEABLE if cacheable else Attribute.NON_CACHEABLE
    mem.allocate_region(RegionKind.CONTIGUOUS_POOL, attr,
                        max(img.base_addr + img.span_bytes, 1), name="weights",
                        align=1)
    engine = PimGemvEngine(mem, corrupt_mac_order=corrupt_mac_order)
    job = GemvJob(img, bf16.encode(x_int.astype(np.float32)),
                  arithmetic="exact")
    # run twice: the attribute hazard only bites once the cache is warm
    engine.execute(job)
    result = engine.execute(job)
    integrity = engine.verify_trigger_integrity(job, result)
    oracle = w_int.astype(np.float64) @ x_int.astype(np.float64)
    value_ok = bool(np.array_equal(result.output, oracle))
    return {"out_dim": out_dim, "in_dim": in_dim, "value_ok": value_ok,
            "integrity": integrity.status, "deficit": integrity.deficit,
            "surplus": integrity.surplus_reads}


def cmd_gemv_check(args) -> int:
    check_int("--trials", args.trials)
    rng = np.random.default_rng(args.seed)
    failures = 0
    for trial in range(args.trials):
        r = _random_gemv_trial(rng, args.cacheable, args.rogue_prefetcher,
                               args.corrupt_mac_order)
        ok = r["value_ok"] and r["integrity"] == "ok"
        failures += not ok
        print(f"trial {trial}: {r['out_dim']}x{r['in_dim']} "
              f"values={'ok' if r['value_ok'] else 'MISMATCH'} "
              f"integrity={r['integrity']} deficit={r['deficit']} "
              f"surplus={r['surplus']}")
    if failures:
        print(f"FAIL: {failures}/{args.trials} trials failed")
        return 2
    print(f"ok: {args.trials} trials passed")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1), not argparse's 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once and shared by every ``main`` call.

    ``commands`` maps each subcommand's name to its parser: argparse's own
    ``choices`` table of the subparsers action.
    """
    parser = _Parser(
        prog="pimsim",
        description="PIM-enabled LPDDR inference simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convert", help="host weight blob -> PIM-aware image")
    c.add_argument("--model", required=True)
    c.add_argument("--geometry", default="desk")
    c.add_argument("--input", required=True)
    c.add_argument("--output", required=True)
    c.add_argument("--manifest", required=True)
    c.set_defaults(func=cmd_convert)

    r = sub.add_parser("run", help="single scenario point")
    r.add_argument("--config", required=True)
    r.add_argument("--output")
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="CSV grid over lengths and scenarios")
    s.add_argument("--config", required=True)
    s.add_argument("--output")
    s.set_defaults(func=cmd_sweep)

    g = sub.add_parser("gemv-check", help="functional engine battery")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--trials", type=int, default=8)
    g.add_argument("--corrupt-mac-order", action="store_true")
    g.add_argument("--cacheable", action="store_true",
                   help="place weights in a cacheable region (expected FAIL)")
    g.add_argument("--rogue-prefetcher", action="store_true")
    g.set_defaults(func=cmd_gemv_check)
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    """Run one command line.  One that starts with a subcommand's name is
    parsed once, by that subcommand's parser; anything else (no arguments,
    ``-h``, an unknown command, an option first) goes to the top-level
    parser, which prints the usage, help and errors."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            if argv[:1] == ["--"] and argv[1:]:  # 3.11's answer; newer argparse runs what follows
                parser.error("argument command: invalid choice: '--' (choose from "
                             f"{', '.join(map(repr, parser.commands))})")
            args = parser.parse_args(argv)
        else:
            # what the top-level parse_args would do with the arguments
            # the subparser leaves: the error names "pimsim", not "pimsim run"
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error("unrecognized arguments: " + " ".join(extras))
        return args.func(args)
    except (SimulatorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
