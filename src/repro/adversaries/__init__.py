"""Adversaries controlling unreliable links, CR4 resolution, and the
process-to-node assignment."""

from repro.adversaries.base import (
    Adversary,
    AdversaryView,
    FixedAssignmentAdversary,
    FullDeliveryAdversary,
    NoDeliveryAdversary,
)
from repro.adversaries.interferers import GreedyInterferer, PivotAdversary
from repro.adversaries.scripted import ReplayAdversary, ScriptedDeliveries
from repro.adversaries.simple import RandomDeliveryAdversary

__all__ = [
    "Adversary",
    "AdversaryView",
    "FixedAssignmentAdversary",
    "FullDeliveryAdversary",
    "GreedyInterferer",
    "NoDeliveryAdversary",
    "PivotAdversary",
    "RandomDeliveryAdversary",
    "ReplayAdversary",
    "ScriptedDeliveries",
]
