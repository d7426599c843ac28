"""CAPS: Contention-Aware Placement Search (the paper's contribution).

- :mod:`repro.core.plan` -- placement plans (task -> worker mappings)
  and the feasibility constraints of paper Eq. 1-2.
- :mod:`repro.core.cost_model` -- the contention cost model of paper
  section 4.2 (Eq. 4-8): compute, state-access, and network cost.
- :mod:`repro.core.search` -- the outer/inner DFS plan enumeration with
  duplicate elimination (section 4.3) and threshold pruning (4.4.1).
- :mod:`repro.core.reorder` -- search-tree exploration reordering (4.4.2).
- :mod:`repro.core.pareto` -- pareto-front bookkeeping over cost vectors.
- :mod:`repro.core.autotune` -- two-phase threshold auto-tuning (5.2).
- :mod:`repro.core.parallel` -- partitioned search on a process pool
  (5.1), and :func:`run_search`, which picks it by worker count.
- :mod:`repro.core.search_reference` -- frozen pre-optimisation DFS
  (equivalence baseline for tests and benchmarks).
- :mod:`repro.core.greedy` -- LPT-style warm start seeding thresholds.
- :mod:`repro.core.skew` -- skew-aware placement groups (5.2).
"""

from repro.core.plan import PlacementPlan, PlanValidationError
from repro.core.cost_model import CostModel, CostVector, TaskCosts
from repro.core.search import CapsSearch, SearchLimits, SearchResult, SearchStats
from repro.core.pareto import ParetoFront
from repro.core.autotune import AutoTuneResult, ThresholdAutoTuner
from repro.core.greedy import greedy_balanced_plan, greedy_threshold_seed
from repro.core.reorder import exploration_order
from repro.core.skew import bucket_shares, skewed_task_costs, zipf_shares
from repro.core.parallel import ProcessCapsSearch, run_search

__all__ = [
    "PlacementPlan",
    "PlanValidationError",
    "CostModel",
    "CostVector",
    "TaskCosts",
    "CapsSearch",
    "SearchLimits",
    "SearchResult",
    "SearchStats",
    "ParetoFront",
    "ThresholdAutoTuner",
    "AutoTuneResult",
    "exploration_order",
    "greedy_balanced_plan",
    "greedy_threshold_seed",
    "ProcessCapsSearch",
    "run_search",
    "zipf_shares",
    "bucket_shares",
    "skewed_task_costs",
]
