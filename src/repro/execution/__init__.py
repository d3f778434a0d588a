"""Physical execution engine (Volcano iterator model)."""

from repro.execution.aggregates import PHashAggregate
from repro.execution.apply import PApply, PExists
from repro.execution.base import (
    PhysicalOperator,
    PMaterialized,
    run_plan,
    run_plan_to_table,
)
from repro.execution.basic import (
    PAlias,
    PDistinct,
    PFilter,
    PLimit,
    PProject,
    PPrune,
    PRemap,
    PSort,
    PUnionAll,
)
from repro.execution.context import Counters, ExecutionContext
from repro.execution.gapply import HASH_PARTITION, SORT_PARTITION, PGApply
from repro.execution.joins import PHashJoin, PNestedLoopJoin
from repro.execution.scans import PGroupScan, PTableScan

__all__ = [
    "Counters",
    "ExecutionContext",
    "HASH_PARTITION",
    "PAlias",
    "PApply",
    "PDistinct",
    "PExists",
    "PFilter",
    "PGApply",
    "PGroupScan",
    "PHashAggregate",
    "PHashJoin",
    "PLimit",
    "PMaterialized",
    "PNestedLoopJoin",
    "PProject",
    "PPrune",
    "PRemap",
    "PSort",
    "PTableScan",
    "PUnionAll",
    "PhysicalOperator",
    "SORT_PARTITION",
    "run_plan",
    "run_plan_to_table",
]
