"""The shipped rule pack.  Importing this package registers every rule.

== =======================================================================
id guards
== =======================================================================
FL000 stale / malformed ``# fairlint:`` directives (emitted by the engine)
FL001 lock discipline: lock-guarded ``self._*`` state written unlocked
FL002 hot paths must not materialise per-row Python values
FL003 canonical-envelope drift: undocumented wire-protocol fields
FL004 fingerprint completeness (no silent pickle fallbacks)
FL005 metrics naming + OPERATIONS.md coverage
FL006 bare-thread hygiene in request-serving code
FL007 swallowed exceptions
FL008 builtin ``hash()`` outside ``__hash__`` (salted per process)
FL101 tab indentation          (format floor)
FL102 trailing whitespace      (format floor)
FL103 line longer than 100     (format floor)
FL104 missing newline at EOF   (format floor)
FL105 CR / CRLF line endings   (format floor)
FL900 file does not parse (emitted by the engine)
== =======================================================================
"""

from repro.analysis.rules import (  # noqa: F401  (registration side effect)
    concurrency,
    format as format_rules,
    meta,
    performance,
    protocol,
    robustness,
)
