"""Synchronous-round radio network simulation substrate."""

from repro.sim.collision import CollisionRule, resolve_reception
from repro.sim.engine import (
    BroadcastEngine,
    ENGINE_NAMES,
    EngineConfig,
    StartMode,
    build_engine,
    run_broadcast,
)
from repro.sim.fast_engine import FastBroadcastEngine
from repro.sim.faults import (
    ChurnSchedule,
    generate_churn,
    window_churn,
)
from repro.sim.messages import (
    COLLISION,
    Message,
    Reception,
    ReceptionKind,
    SILENCE,
    received,
)
from repro.sim.process import (
    Process,
    ProcessContext,
    ScriptedProcess,
    SilentProcess,
)
from repro.sim.topology import CompiledTopology, compile_topology
from repro.sim.recording import trace_from_json, trace_to_json
from repro.sim.trace import ExecutionTrace, RoundRecord
from repro.sim.validation import validate_execution

__all__ = [
    "BroadcastEngine",
    "COLLISION",
    "ChurnSchedule",
    "CollisionRule",
    "CompiledTopology",
    "ENGINE_NAMES",
    "EngineConfig",
    "ExecutionTrace",
    "FastBroadcastEngine",
    "Message",
    "Process",
    "ProcessContext",
    "Reception",
    "ReceptionKind",
    "RoundRecord",
    "SILENCE",
    "ScriptedProcess",
    "SilentProcess",
    "StartMode",
    "build_engine",
    "compile_topology",
    "generate_churn",
    "received",
    "resolve_reception",
    "run_broadcast",
    "trace_from_json",
    "trace_to_json",
    "validate_execution",
    "window_churn",
]
