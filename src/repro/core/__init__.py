"""Sirius - the paper's primary contribution: a GPU-native SQL engine."""

from .buffer_manager import BufferManager
from .deadline import (
    Deadline,
    DeadlineExceededError,
    DidNotFinishError,
    MemoryBudgetExceededError,
)
from .executor import OperatorTiming, QueryProfile
from .expr_compile import UnsupportedExpressionError
from .fallback import FALLBACK_EXCEPTIONS, FallbackEvent, FallbackHandler
from .operators.base import Category, ExecutionContext, OperatorRegistry, UnsupportedFeatureError
from .planner import PhysicalPlan, Pipeline, compile_plan
from .sirius import SiriusEngine

__all__ = [
    "BufferManager",
    "Category",
    "Deadline",
    "DeadlineExceededError",
    "DidNotFinishError",
    "MemoryBudgetExceededError",
    "ExecutionContext",
    "FALLBACK_EXCEPTIONS",
    "FallbackEvent",
    "FallbackHandler",
    "OperatorRegistry",
    "PhysicalPlan",
    "Pipeline",
    "OperatorTiming",
    "QueryProfile",
    "SiriusEngine",
    "UnsupportedExpressionError",
    "UnsupportedFeatureError",
    "compile_plan",
]
