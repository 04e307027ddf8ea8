"""Placement/scheduling scenarios for prefill and decode, as one table of
records: weight copies, cacheable buffers, copy agents and prefill schedule.
FACIL_O is an oracle controller that lets the host read the PIM-aware copy."""

import enum
from typing import NamedTuple


class Schedule(enum.Enum):  # how a prefill orders its GEMMs and copies
    SERIAL = "serial"                    # GEMMs back to back, each layer after its copy
    DOUBLE_BUFFERED = "double_buffered"  # each copy hidden behind earlier GEMMs
    NC_STREAM = "nc_stream"              # GEMMs stream the non-cacheable copy per token


class ScenarioRecord(NamedTuple):
    host_copy: bool    # a host-friendly copy in a cacheable region
    pim_copy: bool     # a PIM-aware copy in a non-cacheable region; decode uses PIM
    buffers: int       # cacheable buffers, each of the model's ff_bytes
    copy_agents: int   # agents swizzle-copying weights into them (0: no copy)
    schedule: Schedule


class Scenario(enum.Enum):
    WD = "wd", ScenarioRecord(True, True, 0, 0, Schedule.SERIAL)
    FACIL_O = "facil_o", ScenarioRecord(False, True, 0, 0, Schedule.SERIAL)
    S_DDB = "s_ddb", ScenarioRecord(False, True, 2, 2, Schedule.DOUBLE_BUFFERED)
    S_OWR = "s_owr", ScenarioRecord(False, True, 1, 4, Schedule.SERIAL)
    C_GEMM = "c_gemm", ScenarioRecord(True, False, 0, 0, Schedule.SERIAL)
    NC_GEMM = "nc_gemm", ScenarioRecord(False, True, 0, 0, Schedule.NC_STREAM)

    def __new__(cls, value: str, record: ScenarioRecord):
        member = object.__new__(cls)
        member._value_, member.record = value, record
        return member
