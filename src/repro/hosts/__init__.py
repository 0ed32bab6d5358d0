"""Host databases: MiniDuck (single node), MiniDoris (distributed), and
the ClickHouse-style baseline, plus the shared CPU engine and the Sirius
drop-in extension."""

from .clicklite import CLICKLITE_SPEC, ClickLite, UnsupportedQueryError
from ..core.deadline import DidNotFinishError
from .cpu_engine import CpuEngine, CpuEvalError
from .minidoris import DORIS_SPEC, MiniDoris, NodeFailureError
from .miniduck import ExecutionExtension, MiniDuck, QueryResult
from .sirius_extension import SiriusExtension

__all__ = [
    "CLICKLITE_SPEC",
    "ClickLite",
    "CpuEngine",
    "CpuEvalError",
    "DORIS_SPEC",
    "DidNotFinishError",
    "ExecutionExtension",
    "MiniDoris",
    "MiniDuck",
    "NodeFailureError",
    "QueryResult",
    "SiriusExtension",
    "UnsupportedQueryError",
]
