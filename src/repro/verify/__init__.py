"""Schedule-exploration verification harness for the SRM collectives.

The paper's correctness story rests on hand-reasoned synchronization —
per-process READY flags with spin/yield waits (Fig. 2-3), two-buffer
pipelining, and LAPI completion counters guarding remote puts (Fig. 4).  The
simulator normally executes exactly **one** interleaving per run; this
package checks the protocols under *many*:

* :mod:`repro.verify.invariants` — runtime protocol invariant checkers
  hooked into the shared-memory and LAPI layers (read-before-READY,
  in-use-buffer overwrite, flag pairing, counter monotonicity);
* :mod:`repro.verify.faults` — deterministic fault injection (put-delay
  jitter, reordered flag wakeups, stalled node masters);
* :mod:`repro.verify.explorer` — schedule exploration drivers over the
  pluggable engine tie-break scheduler (seeded-random and bounded-DFS);
* :mod:`repro.verify.mutations` — mutation smoke: flip one known
  synchronization line and prove the detectors fire;
* :mod:`repro.verify.runner` — the end-to-end grid (``python -m repro
  verify``): every collective's result must be byte-invariant across all
  explored schedules, with zero invariant violations on clean code.
"""

from repro.verify.explorer import ScheduleOutcome, dfs_choice_sequences, explore_cell
from repro.verify.faults import FaultPlan
from repro.verify.invariants import Verifier, Violation
from repro.verify.mutations import MUTATIONS, apply_mutation
from repro.verify.runner import (
    Cell,
    default_grid,
    quick_grid,
    run_mutation_smoke,
    run_verify,
)

__all__ = [
    "Verifier",
    "Violation",
    "FaultPlan",
    "ScheduleOutcome",
    "explore_cell",
    "dfs_choice_sequences",
    "MUTATIONS",
    "apply_mutation",
    "Cell",
    "default_grid",
    "quick_grid",
    "run_verify",
    "run_mutation_smoke",
]
