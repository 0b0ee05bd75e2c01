"""``repro.analysis`` — AST-based domain linter for the reproduction's contracts.

The simulation's headline property (bit-identical reruns of the paper's
Table 1-3 experiments from one master seed) rests on conventions that no
unit test can see: randomness must flow through
:class:`~repro.sim.random.RandomStreams`, time through the virtual clock,
instruments through the ``<family>.<noun>.<detail>`` naming scheme, and
errors through the :class:`~repro.errors.ReproError` taxonomy.  This
package machine-checks those conventions.

Rules
-----

======  ======================================================================
DET01   No wall-clock reads or global ``random`` use outside the designated
        modules — simulation code draws from ``RandomStreams`` / the clock.
DET02   No iteration over sets in scheduling/routing code (ordering hazard).
SIM01   Simulation process generators must not call blocking stdlib I/O.
CRY01   No constant IVs or ECB-shaped block encryption.
CRY02   Key-material taint tracking: no key reaches journals, logs,
        f-strings, ``repr`` or wire sinks, named at the sink or through
        assignments and one call-graph hop.
OBS01   Instrument name literals must match ``<family>.<noun>[.<detail>]``
        against the documented family list (docs/OBSERVABILITY.md).
OBS02   Registered instruments and docs/OBSERVABILITY.md agree, in both
        directions.
WIRE01  Message-kind and wire-field vocabularies must agree across
        producers, handlers, and the codecs.
ERR01   No ``raise`` of builtin exception types where a ``ReproError``
        subclass exists (see ``repro.errors``).
DOC01   Public modules, classes and functions of the packages the docs
        send readers into carry a docstring.
DOC02   Relative links in README.md and docs/*.md resolve, and every
        docs/ page is reachable from README.md.
DOC03   EXPERIMENTS.md sections end with the command that regenerates
        each benchmark they cite.
======  ======================================================================

Every rule reads one :class:`~repro.analysis.project.ProjectIndex` of
the whole run (module table, import resolution, call graph).

Suppress a finding on one line with ``# repro: noqa[RULE]`` (or a bare
``# repro: noqa`` to silence every rule on that line); that is the only
way to accept one.  See ``docs/ANALYSIS.md`` for the full rule catalogue
with examples.
"""

from repro.analysis.base import (  # noqa: F401
    Checker,
    FileContext,
    Finding,
    Severity,
)
from repro.analysis.project import ProjectIndex  # noqa: F401
from repro.analysis.runner import (  # noqa: F401
    all_rule_ids,
    analyze_index,
    analyze_paths,
    analyze_source,
    format_findings_text,
    index_paths,
)
from repro.analysis.sarif import format_sarif, to_sarif  # noqa: F401
