"""The checker suite: importing this package registers every rule.

Rule catalog (details in each module and DESIGN.md §9, §13):

========  ========================  ==========================================
Rule      Name                      Catches
========  ========================  ==========================================
RP001     silent-dtype-upcast       ambiguous allocations in complex-handling
                                    functions; int accumulators fed floats
RP002     argument-mutation         in-place writes to arguments without an
                                    out=/in-place contract
RP003     shared-mutable-state      mutable default args; lowercase
                                    module-level mutable literals
RP004     raw-unit-literal          hand-typed copies of repro.constants
                                    values (any power of ten)
RP006     telemetry-hygiene         spans outside ``with``; instruments
                                    built off-registry
RP008     spmd-nondeterminism       accumulation over unordered sets;
                                    unseeded / module-global RNG — ranks
                                    silently diverge
========  ========================  ==========================================
"""

from repro.analysis.checkers import (  # noqa: F401  (import = registration)
    determinism,
    dtype,
    mutation,
    state,
    telemetry,
    units,
)
