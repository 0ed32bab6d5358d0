"""MiniDuck: the embedded, single-node host database (the DuckDB role).

MiniDuck owns the user interface (SQL in, table out), the catalog, the
parser/optimizer, and its own vectorized CPU engine.  Like DuckDB it
exposes an **extension hook**: an accelerator can register itself and
receive every optimised plan *as serialized Substrait JSON* — MiniDuck's
own code does not know what Sirius is, which is the paper's
"zero modification to DuckDB's codebase" integration (§3.2.1).

    db = MiniDuck()
    db.load_tables(generate_tpch(0.01))
    db.install_extension(SiriusExtension(SiriusEngine.for_spec(GH200)))
    result = db.execute("select count(*) from lineitem")   # runs on "GPU"
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Protocol

from ..columnar import Table
from ..gpu.device import Device
from ..gpu.specs import M7I_CPU
from ..plan import Plan
from ..sql import SqlPlanner
from ..sql.optimizer import optimize_plan
from .catalog import Catalog
from .cpu_engine import CpuEngine

__all__ = ["MiniDuck", "QueryResult", "ExecutionExtension"]


class ExecutionExtension(Protocol):
    """What MiniDuck requires from a pluggable execution engine."""

    name: str

    def execute_substrait(self, plan_json: str, catalog: Mapping[str, Table]) -> Table:
        """Execute a serialized plan against the host's tables."""
        ...


class QueryResult:
    """A result table plus where/how it was executed."""

    def __init__(self, table: Table, engine: str, sim_seconds: float, profile=None):
        self.table = table
        self.engine = engine
        self.sim_seconds = sim_seconds
        self.profile = profile


class MiniDuck(Catalog):
    """An embedded analytical database with a swappable execution engine."""

    def __init__(self):
        super().__init__()
        self.device = Device(M7I_CPU)
        self.cpu_engine = CpuEngine(self.device)
        self._extension: ExecutionExtension | None = None

    # -- persistence ---------------------------------------------------------
    #
    # §3.2.3: "Sirius relies on the host database to read data from disk."
    # MiniDuck owns the on-disk format (one RPQ columnar file per table);
    # Sirius only ever sees host tables and caches them on device.

    def save(self, directory: str | Path) -> None:
        """Persist every table as ``<directory>/<name>.rpq``."""
        from ..columnar import write_table

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, table in self.tables.items():
            write_table(table, directory / f"{name}.rpq")

    @classmethod
    def open(cls, directory: str | Path) -> "MiniDuck":
        """Open a database directory previously written by :meth:`save`."""
        from ..columnar import read_table

        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"no database directory at {directory}")
        db = cls()
        for path in sorted(directory.glob("*.rpq")):
            db.create_table(path.stem, read_table(path))
        return db

    # -- extension hook ------------------------------------------------------

    def install_extension(self, extension: ExecutionExtension) -> None:
        """Register a drop-in execution engine (e.g. Sirius)."""
        self._extension = extension

    def uninstall_extension(self) -> None:
        self._extension = None

    @property
    def active_engine(self) -> str:
        return self._extension.name if self._extension is not None else "miniduck-cpu"

    # -- queries ------------------------------------------------------------

    def plan(self, sql: str) -> Plan:
        """Parse + bind + optimise into the Substrait-style IR."""
        plan = SqlPlanner(self.stats()).plan_sql(sql)
        return optimize_plan(plan, self.row_counts())

    def execute(self, sql: str) -> QueryResult:
        """Run SQL; routed to the extension when one is installed."""
        plan = self.plan(sql)
        return self.execute_plan(plan)

    def execute_plan(self, plan: Plan) -> QueryResult:
        if self._extension is not None:
            # The drop-in path: the plan crosses the boundary as Substrait
            # JSON, exactly like DuckDB -> Sirius in the paper.
            table = self._extension.execute_substrait(plan.to_json(), self.tables)
            profile = getattr(self._extension, "last_profile", None)
            sim = profile.sim_seconds if profile is not None else 0.0
            return QueryResult(table, self._extension.name, sim, profile)
        table = self.cpu_engine.execute(plan, self.tables)
        return QueryResult(table, "miniduck-cpu", self.cpu_engine.last_sim_seconds)
