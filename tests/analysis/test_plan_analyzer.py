"""Defect corpus for the plan analyzer: every PA rule has at least one
fixture plan it must flag — with the expected rule id — and a minimal
passing twin that must come back clean.

The fixtures construct relation trees directly (not through PlanBuilder,
which resolves names and would reject most of these), exactly like a
buggy or malicious third-party plan payload would arrive.
"""

import json

import pytest

from repro.analysis import SEVERITY_ERROR, SEVERITY_WARNING, analyze_plan
from repro.analysis.plan_analyzer import PLAN_RULES
from repro.columnar import Schema, Table
from repro.core.expr_compile import UnsupportedExpressionError, compile_expression
from repro.core.fallback import gpu_rungs
from repro.gpu import GH200, Device
from repro.plan import Plan, PlanValidationError, walk_relations
from repro.plan.expressions import AggregateCall, FieldRef, Literal, ScalarCall
from repro.plan.relations import (
    AggregateRel,
    FetchRel,
    FilterRel,
    JoinRel,
    ProjectRel,
    ReadRel,
    SortRel,
)

SCHEMA = Schema([("k", "int64"), ("g", "int64"), ("v", "float64"), ("s", "string")])
DIM_SCHEMA = Schema([("k", "int64"), ("w", "int64")])


def read():
    return ReadRel("fact", SCHEMA)


def dim_read():
    return ReadRel("dim", DIM_SCHEMA)


@pytest.fixture(scope="module")
def catalog():
    fact = Table.from_pydict(
        {"k": [1, 2, 3], "g": [0, 1, 0], "v": [1.5, -2.0, 3.25], "s": ["a", "b", "c"]},
        SCHEMA,
    )
    dim = Table.from_pydict({"k": [1, 2], "w": [10, 20]}, DIM_SCHEMA)
    return {"fact": fact, "dim": dim}


def agg(op, arg_index=None):
    arg = FieldRef(arg_index) if arg_index is not None else None
    return AggregateCall(op if arg is not None else "count_star", arg)


def sum_of_round(digits):
    return AggregateCall("sum", ScalarCall("round", [FieldRef(2), digits]))


def round_residual(digits):
    return ScalarCall("gt", [ScalarCall("round", [FieldRef(2), digits]), Literal(0.0)])


# (rule, failing relation factory, passing relation factory)
CORPUS = [
    ("PA01", lambda: ReadRel("missing", SCHEMA), read),
    ("PA02", lambda: ProjectRel(read(), [FieldRef(9)], ["x"]),
     lambda: ProjectRel(read(), [FieldRef(0)], ["x"])),
    ("PA02", lambda: SortRel(read(), [(11, True)]),
     lambda: SortRel(read(), [(0, True)])),
    ("PA02", lambda: AggregateRel(read(), [7], [(agg("sum", 2), "m")]),
     lambda: AggregateRel(read(), [1], [(agg("sum", 2), "m")])),
    ("PA02", lambda: JoinRel(read(), dim_read(), "inner", [0], [5]),
     lambda: JoinRel(read(), dim_read(), "inner", [0], [0])),
    ("PA02", lambda: AggregateRel(read(), [1], [(agg("sum", 9), "m")]),
     lambda: AggregateRel(read(), [1], [(agg("sum", 2), "m")])),
    ("PA03",
     lambda: ProjectRel(
         read(), [ScalarCall("add", [FieldRef(3), Literal(1)])], ["x"]),
     lambda: ProjectRel(
         read(), [ScalarCall("add", [FieldRef(0), Literal(1)])], ["x"])),
    ("PA04", lambda: FilterRel(read(), FieldRef(0)),
     lambda: FilterRel(read(), ScalarCall("gt", [FieldRef(0), Literal(1)]))),
    ("PA04",
     lambda: ReadRel("fact", SCHEMA, filter_expr=FieldRef(2)),
     lambda: ReadRel(
         "fact", SCHEMA,
         filter_expr=ScalarCall("gt", [FieldRef(2), Literal(0.0)]))),
    ("PA05", lambda: AggregateRel(read(), [1], [(FieldRef(2), "m")]),
     lambda: AggregateRel(read(), [1], [(agg("sum", 2), "m")])),
    ("PA05",
     lambda: FilterRel(read(), AggregateCall("sum", FieldRef(2))),
     lambda: FilterRel(read(), ScalarCall("gt", [FieldRef(2), Literal(0.0)]))),
    ("PA05",
     lambda: AggregateRel(
         read(), [1],
         [(AggregateCall("sum", AggregateCall("sum", FieldRef(2))), "m")]),
     lambda: AggregateRel(read(), [1], [(agg("sum", 2), "m")])),
    ("PA05", lambda: ProjectRel(read(), [FieldRef(0), FieldRef(1)], ["x", "x"]),
     lambda: ProjectRel(read(), [FieldRef(0), FieldRef(1)], ["x", "y"])),
    ("PA06", lambda: JoinRel(read(), dim_read(), "inner", [3], [0]),
     lambda: JoinRel(read(), dim_read(), "inner", [0], [0])),
    ("PA06", lambda: JoinRel(read(), dim_read(), "left", [], []),
     lambda: JoinRel(read(), dim_read(), "inner", [], [])),
    ("PA03", lambda: AggregateRel(read(), [1], [(agg("sum", 3), "m")]),
     lambda: AggregateRel(read(), [1], [(agg("sum", 2), "m")])),
    ("PA04", lambda: JoinRel(read(), dim_read(), "inner", [0], [0], FieldRef(5)),
     lambda: JoinRel(
         read(), dim_read(), "inner", [0], [0],
         ScalarCall("gt", [FieldRef(5), Literal(1)]))),
    ("PA06", lambda: JoinRel(read(), dim_read(), "semi", [], []),
     lambda: JoinRel(read(), dim_read(), "semi", [0], [0])),
    ("PA08",
     lambda: FilterRel(read(), ScalarCall("like", [FieldRef(3), FieldRef(3)])),
     lambda: FilterRel(read(), ScalarCall("like", [FieldRef(3), Literal("a%")]))),
    ("PA08",
     lambda: FilterRel(
         read(), ScalarCall("in", [FieldRef(0), Literal(1), FieldRef(1)])),
     lambda: FilterRel(
         read(), ScalarCall("in", [FieldRef(0), Literal(1), Literal(2)]))),
    ("PA08",
     lambda: ProjectRel(
         read(),
         [ScalarCall("substring", [FieldRef(3), FieldRef(0), Literal(2)])],
         ["x"]),
     lambda: ProjectRel(
         read(),
         [ScalarCall("substring", [FieldRef(3), Literal(1), Literal(2)])],
         ["x"])),
    ("PA10", lambda: FetchRel(read(), -1, None),
     lambda: FetchRel(read(), 0, 5)),
    ("PA10", lambda: FetchRel(read(), 0, -3),
     lambda: FetchRel(read(), 0, 3)),
    # An ordinal never counts from the end: "the last column" is spelled
    # with its index from the front (the passing twins).
    ("PA02", lambda: SortRel(read(), [(-1, True)]),
     lambda: SortRel(read(), [(3, True)])),
    ("PA02", lambda: JoinRel(read(), dim_read(), "inner", [-1], [0]),
     lambda: JoinRel(read(), dim_read(), "inner", [0], [0])),
    ("PA02", lambda: JoinRel(read(), dim_read(), "inner", [0], [-1]),
     lambda: JoinRel(read(), dim_read(), "inner", [0], [1])),
    ("PA02", lambda: AggregateRel(read(), [-1], [(agg("sum", 2), "m")]),
     lambda: AggregateRel(read(), [3], [(agg("sum", 2), "m")])),
    # A filter pushed into the scan is bounded by the scanned schema.
    ("PA02",
     lambda: ReadRel(
         "fact", SCHEMA, filter_expr=ScalarCall("gt", [FieldRef(9), Literal(0)])),
     lambda: ReadRel(
         "fact", SCHEMA, filter_expr=ScalarCall("gt", [FieldRef(0), Literal(0)]))),
    # The device lowers ROUND only with a constant digit count.
    ("PA08",
     lambda: ProjectRel(
         read(), [ScalarCall("round", [FieldRef(2), FieldRef(1)])], ["x"]),
     lambda: ProjectRel(
         read(), [ScalarCall("round", [FieldRef(2), Literal(1)])], ["x"])),
    # ... wherever it sits: in a measure, global or grouped, and in an
    # inner or semi join's residual (over fact's v and dim's w).
    ("PA08",
     lambda: AggregateRel(read(), [], [(sum_of_round(FieldRef(1)), "m")]),
     lambda: AggregateRel(read(), [], [(sum_of_round(Literal(1)), "m")])),
    ("PA08",
     lambda: AggregateRel(read(), [1], [(sum_of_round(FieldRef(1)), "m")]),
     lambda: AggregateRel(read(), [1], [(sum_of_round(Literal(1)), "m")])),
    ("PA08",
     lambda: JoinRel(read(), dim_read(), "inner", [0], [0], round_residual(FieldRef(5))),
     lambda: JoinRel(read(), dim_read(), "inner", [0], [0], round_residual(Literal(1)))),
    ("PA08",
     lambda: JoinRel(read(), dim_read(), "semi", [0], [0], round_residual(FieldRef(5))),
     lambda: JoinRel(read(), dim_read(), "semi", [0], [0], round_residual(Literal(1)))),
]

ERROR_RULES = {r for r, d in PLAN_RULES.items() if r not in ("PA08", "PA09")}


class TestDefectCorpus:
    @pytest.mark.parametrize(
        "rule,bad,good", CORPUS, ids=[f"{r}-{i}" for i, (r, _, _) in enumerate(CORPUS)]
    )
    def test_bad_fixture_is_flagged(self, rule, bad, good, catalog):
        report = analyze_plan(Plan(bad()), catalog)
        assert rule in report.rules_hit(), report.findings

    @pytest.mark.parametrize(
        "rule,bad,good", CORPUS, ids=[f"{r}-{i}" for i, (r, _, _) in enumerate(CORPUS)]
    )
    def test_good_twin_is_clean(self, rule, bad, good, catalog):
        report = analyze_plan(Plan(good()), catalog)
        assert rule not in report.rules_hit(), report.findings

    @pytest.mark.parametrize(
        "rel",
        [f for _, bad, good in CORPUS for f in (bad, good)],
        ids=[f"{r}-{i}-{w}" for i, (r, _, _) in enumerate(CORPUS) for w in ("bad", "good")],
    )
    def test_validate_and_analyzer_are_two_views_of_one_checker(self, rel):
        """``Plan.validate()`` raises iff the analyzer (same inputs: no
        catalog) reports an error, and says what the first error says."""
        errors = analyze_plan(Plan(rel())).errors
        if not errors:
            Plan(rel()).validate()
            return
        with pytest.raises(PlanValidationError) as excinfo:
            Plan(rel()).validate()
        assert errors[0].message in str(excinfo.value)
        assert errors[0].site in str(excinfo.value)

    def test_every_rule_has_a_failing_fixture(self):
        covered = {rule for rule, _, _ in CORPUS} | {"PA09"}  # PA09 below
        assert covered == set(PLAN_RULES)

    def test_errors_reject(self, catalog):
        report = analyze_plan(Plan(FetchRel(read(), -1, None)), catalog)
        assert not report.ok
        assert report.suggested_tier == "reject"
        assert all(f.severity == SEVERITY_ERROR for f in report.errors)

    def test_gpu_unsupported_suggests_cpu_plan(self, catalog):
        rel = FilterRel(read(), ScalarCall("like", [FieldRef(3), FieldRef(3)]))
        report = analyze_plan(Plan(rel), catalog)
        assert report.ok  # warnings only
        assert not report.gpu_supported
        assert report.suggested_tier == "cpu-plan"
        assert all(f.severity == SEVERITY_WARNING for f in report.findings)
        # The finding is the compiler's own verdict, at the relation's site.
        (finding,) = report.findings
        assert finding.message == "filter condition: LIKE pattern must be a literal, got $3"
        assert finding.site == "root (FilterRel)"


def _scalar_positions(plan):
    """Every expression the engine evaluates: pushed and plain filters,
    projections, join post-filters, measure arguments."""
    for rel in walk_relations(plan.root):
        if isinstance(rel, ReadRel):
            yield rel.filter_expr
        elif isinstance(rel, FilterRel):
            yield rel.condition
        elif isinstance(rel, ProjectRel):
            yield from rel.expressions
        elif isinstance(rel, JoinRel):
            yield rel.post_filter
        elif isinstance(rel, AggregateRel):
            yield from (measure.arg for measure, _name in rel.measures)


def _compiles(expr) -> bool:
    try:
        compile_expression(expr)
    except UnsupportedExpressionError:
        return False
    return True


ALL_FIXTURES = [f for _, bad, good in CORPUS for f in (bad, good)]
FIXTURE_IDS = [f"{r}-{i}-{w}" for i, (r, _, _) in enumerate(CORPUS) for w in ("bad", "good")]


class TestTheAnalyzerAsksTheEngine:
    @pytest.mark.parametrize("rel", ALL_FIXTURES, ids=FIXTURE_IDS)
    def test_gpu_support_is_the_compilers_verdict(self, rel, catalog):
        plan = Plan(rel())
        report = analyze_plan(plan, catalog)
        if not report.ok:
            return  # an ill-typed expression is never offered to the compiler
        expected = all(_compiles(e) for e in _scalar_positions(plan) if e is not None)
        assert report.gpu_supported == expected, report.findings

    def test_pa08_is_exactly_what_compile_plan_refuses(self, catalog):
        """``gpu_supported`` holds exactly when the plan compiles: over the
        well-formed corpus fixtures, the 22 TPC-H queries and the whole
        battery (planned over SF 0.01), no plan that PA08 sends to the
        host tier compiles, and none it keeps on the GPU is refused."""
        from repro.bench.baselines.battery import SCALE_FACTOR, battery_cases
        from repro.core.planner import compile_plan
        from repro.hosts import MiniDuck
        from repro.tpch import TPCH_QUERIES, generate_tpch, tpch_query

        host = MiniDuck()
        host.load_tables(generate_tpch(sf=SCALE_FACTOR, seed=19920101))
        sql = [tpch_query(n) for n in TPCH_QUERIES] + [case.sql for case in battery_cases()]
        planned = [(text, host.plan(text)) for text in sql]
        assert len(planned) == 370
        fixtures = [(i, Plan(rel())) for i, rel in zip(FIXTURE_IDS, ALL_FIXTURES)]
        well_formed = [(i, plan) for i, plan in fixtures if analyze_plan(plan, catalog).ok]
        for what, plan in well_formed + planned:
            try:
                compile_plan(plan)
                compiles = True
            except UnsupportedExpressionError:
                compiles = False
            assert analyze_plan(plan).gpu_supported == compiles, what

    @pytest.mark.parametrize("rel", ALL_FIXTURES, ids=FIXTURE_IDS)
    def test_tiers_are_the_ladders(self, rel, catalog):
        report = analyze_plan(Plan(rel()), catalog, Device(GH200, memory_limit_gb=1.0))
        assert report.suggested_tier in {"gpu", *gpu_rungs(False), "cpu-plan", "reject"}


# kind -> (a valid single-operator relation, where its one ordinal sits in
# the serialised root)
ORDINAL_SITES = {
    "sort": (lambda: SortRel(read(), [(0, True)]),
             lambda root, o: root.update(keys=[[o, True]])),
    "join-left": (lambda: JoinRel(read(), dim_read(), "inner", [0], [0]),
                  lambda root, o: root.update(left_keys=[o])),
    "join-right": (lambda: JoinRel(read(), dim_read(), "inner", [0], [0]),
                   lambda root, o: root.update(right_keys=[o])),
    "group": (lambda: AggregateRel(read(), [0], [(agg("sum", 2), "m")]),
              lambda root, o: root.update(groups=[o])),
}


def _payload_with_ordinal(kind, ordinal):
    """A valid plan payload whose one ordinal of the given kind is then
    overwritten, as a third-party producer could."""
    rel, overwrite = ORDINAL_SITES[kind]
    payload = Plan(rel()).to_dict()
    overwrite(payload["root"], ordinal)
    return json.dumps(payload)


class TestOrdinalsFromOutside:
    """JSON can carry anything where an ordinal belongs.  Only an int in
    ``[0, arity)`` addresses a column; everything else is a PA02 error —
    a ``PlanValidationError`` from ``validate()``, never a ``TypeError``,
    and the analyzer reports it without raising."""

    @pytest.mark.parametrize("kind", ORDINAL_SITES)
    @pytest.mark.parametrize("ordinal", ["a", 0.5, -1, True, None], ids=repr)
    def test_non_ordinal_is_a_validation_error(self, kind, ordinal):
        plan = Plan.from_json(_payload_with_ordinal(kind, ordinal))
        with pytest.raises(PlanValidationError, match="ordinal"):
            plan.validate()
        report = analyze_plan(plan)
        assert not report.ok
        assert "PA02" in {f.rule for f in report.errors}

    @pytest.mark.parametrize("kind", ORDINAL_SITES)
    def test_in_range_int_is_accepted(self, kind):
        plan = Plan.from_json(_payload_with_ordinal(kind, 1))
        plan.validate()
        assert analyze_plan(plan).ok


class TestWorkingSetTier:
    def test_pa09_oversized_working_set_suggests_spill(self):
        n = 50_000
        fact = Table.from_pydict(
            {
                "k": list(range(n)),
                "g": [i % 7 for i in range(n)],
                "v": [float(i) for i in range(n)],
                "s": ["x"] * n,
            },
            SCHEMA,
        )
        device = Device(GH200, memory_limit_gb=0.001)  # ~0.5 MB pool
        report = analyze_plan(Plan(SortRel(read(), [(0, True)])), {"fact": fact}, device)
        assert report.ok
        assert "PA09" in report.rules_hit()
        assert report.suggested_tier == gpu_rungs(False)[0]
        assert report.working_set_bytes > device.processing_pool.capacity

    def test_small_working_set_stays_gpu(self, catalog):
        device = Device(GH200, memory_limit_gb=1.0)
        report = analyze_plan(Plan(SortRel(read(), [(0, True)])), catalog, device)
        assert report.suggested_tier == "gpu"
        assert "PA09" not in report.rules_hit()


class TestReportShape:
    def test_multiple_findings_accumulate(self, catalog):
        # One plan, three independent defects: the analyzer must report
        # them all, not stop at the first like validate() does.
        rel = FetchRel(
            ProjectRel(
                FilterRel(ReadRel("missing", SCHEMA), FieldRef(0)),
                [FieldRef(9)],
                ["x"],
            ),
            -1,
            None,
        )
        report = analyze_plan(Plan(rel), catalog)
        assert {"PA01", "PA02", "PA04", "PA10"} <= report.rules_hit()

    def test_output_schema_and_json(self, catalog):
        import json

        report = analyze_plan(Plan(read()), catalog)
        assert report.output_schema == [
            ("k", "int64"), ("g", "int64"), ("v", "float64"), ("s", "string")
        ]
        doc = json.loads(report.to_json())
        assert doc["ok"] is True
        assert doc["suggested_tier"] == "gpu"
        assert doc["findings"] == []
        assert report.summary()

    def test_a_call_short_of_arguments_is_rejected_not_raised(self):
        # The arity table reports it (PA03) before the compiler sees it.
        report = analyze_plan(Plan(FilterRel(read(), ScalarCall("like", [FieldRef(3)]))))
        assert report.suggested_tier == "reject"
        assert report.rules_hit() == {"PA03"}
        assert "like takes 2 arguments, got 1" in report.findings[0].message

    def test_a_call_the_compiler_cannot_build_is_rejected_not_raised(self):
        # Well-typed, right arity, but the digits literal is no integer.
        rounded = ScalarCall("round", [FieldRef(2), Literal("x")])
        report = analyze_plan(Plan(ProjectRel(read(), [rounded], ["r"])))
        assert report.suggested_tier == "reject"
        assert report.rules_hit() == {"PA03"}
        assert "malformed call" in report.findings[0].message

    def test_analyzer_never_raises_on_broken_trees(self):
        rel = ProjectRel(ReadRel("missing", SCHEMA), [FieldRef(42)], ["x"])
        report = analyze_plan(Plan(rel))  # no catalog, no device
        assert not report.ok
