"""The shipped rule set.  Import order fixes the catalogue order."""

from __future__ import annotations

from repro.analysis.base import Checker
from repro.analysis.rules.crypto_hygiene import SecretExposureChecker
from repro.analysis.rules.determinism import SetIterationChecker, WallClockChecker
from repro.analysis.rules.docs import (
    DocLinkChecker,
    ExperimentsFooterChecker,
    PublicDocstringChecker,
)
from repro.analysis.rules.error_taxonomy import BuiltinRaiseChecker
from repro.analysis.rules.key_taint import KeyMaterialFlowChecker
from repro.analysis.rules.observability import (
    InstrumentNameChecker,
    UndocumentedInstrumentChecker,
)
from repro.analysis.rules.sim_process import BlockingSimProcessChecker
from repro.analysis.rules.wire_schema import WireSchemaChecker

#: Checker classes in catalogue order (DET01, DET02, SIM01, CRY01, CRY02,
#: OBS01, OBS02, WIRE01, ERR01, DOC01, DOC02, DOC03).
ALL_CHECKER_CLASSES: tuple[type[Checker], ...] = (
    WallClockChecker,
    SetIterationChecker,
    BlockingSimProcessChecker,
    SecretExposureChecker,
    KeyMaterialFlowChecker,
    InstrumentNameChecker,
    UndocumentedInstrumentChecker,
    WireSchemaChecker,
    BuiltinRaiseChecker,
    PublicDocstringChecker,
    DocLinkChecker,
    ExperimentsFooterChecker,
)


def default_checkers() -> list[Checker]:
    """Fresh instances of every shipped checker."""
    return [cls() for cls in ALL_CHECKER_CLASSES]
