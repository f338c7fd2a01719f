"""The paper's barrier-synchronization programs.

* :mod:`repro.barrier.control` -- control positions and phase arithmetic;
* :mod:`repro.barrier.spec` -- the Section 2 specification oracle;
* :mod:`repro.barrier.cb` -- coarse-grain program CB (Section 3);
* :mod:`repro.barrier.tokenring` -- the multitolerant token ring (T1-T5);
* :mod:`repro.barrier.rb` -- ring-refined program RB (Section 4.1);
* :mod:`repro.barrier.trees` -- RB' and tree refinements (Section 4.2);
* :mod:`repro.barrier.mb` -- message-passing program MB (Section 5);
* :mod:`repro.barrier.intolerant` -- fault-intolerant baseline;
* :mod:`repro.barrier.legitimacy` -- legitimate-state predicates.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.barrier.control import CP, CB_CP_DOMAIN, RB_CP_DOMAIN, phase_succ
    from repro.barrier.cb import (
        cb_detectable_fault,
        cb_undetectable_fault,
        make_cb,
    )
    from repro.barrier.tokenring import (
        holds_token,
        make_token_ring,
        token_count,
    )
    from repro.barrier.rb import (
        make_rb,
        rb_detectable_fault,
        rb_undetectable_fault,
    )
    from repro.barrier.trees import make_rb_tree, make_rb_two_ring
    from repro.barrier.mb import (
        make_mb,
        mb_detectable_fault,
        mb_undetectable_fault,
    )
    from repro.barrier.intolerant import make_intolerant_barrier
    from repro.barrier.sources import (
        CB_SOURCE,
        MB_SOURCE,
        RB_SOURCE,
        TOKEN_RING_SOURCE,
        compile_cb,
        compile_mb,
        compile_rb,
        compile_token_ring,
    )
    from repro.barrier.tables import follower_table, root_table, state_bits
    from repro.barrier.timed_rb import make_timed_rb, run_timed_rb
    from repro.barrier.refinement import (
        check_mb_refines_rb,
        check_rb_refines_cb,
        states_from_run,
    )
    from repro.barrier.spec import BarrierSpecChecker, SpecReport
    from repro.barrier.legitimacy import (
        cb_legitimate,
        cb_start_state,
        rb_legitimate,
        rb_start_state,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "control": ("CP", "CB_CP_DOMAIN", "RB_CP_DOMAIN", "phase_succ"),
        "cb": ("cb_detectable_fault", "cb_undetectable_fault", "make_cb"),
        "tokenring": ("holds_token", "make_token_ring", "token_count"),
        "rb": ("make_rb", "rb_detectable_fault", "rb_undetectable_fault"),
        "trees": ("make_rb_tree", "make_rb_two_ring"),
        "mb": ("make_mb", "mb_detectable_fault", "mb_undetectable_fault"),
        "intolerant": ("make_intolerant_barrier",),
        "sources": (
            "CB_SOURCE", "MB_SOURCE", "RB_SOURCE", "TOKEN_RING_SOURCE", "compile_cb",
            "compile_mb", "compile_rb", "compile_token_ring",
        ),
        "tables": ("follower_table", "root_table", "state_bits"),
        "timed_rb": ("make_timed_rb", "run_timed_rb"),
        "refinement": ("check_mb_refines_rb", "check_rb_refines_cb", "states_from_run"),
        "spec": ("BarrierSpecChecker", "SpecReport"),
        "legitimacy": (
            "cb_legitimate", "cb_start_state", "rb_legitimate", "rb_start_state",
        ),
    },
)

__all__ = [
    "CP",
    "CB_CP_DOMAIN",
    "RB_CP_DOMAIN",
    "phase_succ",
    "make_cb",
    "cb_detectable_fault",
    "cb_undetectable_fault",
    "make_token_ring",
    "holds_token",
    "token_count",
    "make_rb",
    "rb_detectable_fault",
    "rb_undetectable_fault",
    "make_rb_tree",
    "make_rb_two_ring",
    "make_mb",
    "mb_detectable_fault",
    "mb_undetectable_fault",
    "make_intolerant_barrier",
    "CB_SOURCE",
    "RB_SOURCE",
    "MB_SOURCE",
    "TOKEN_RING_SOURCE",
    "compile_cb",
    "compile_rb",
    "compile_mb",
    "compile_token_ring",
    "follower_table",
    "root_table",
    "state_bits",
    "make_timed_rb",
    "run_timed_rb",
    "check_rb_refines_cb",
    "check_mb_refines_rb",
    "states_from_run",
    "BarrierSpecChecker",
    "SpecReport",
    "cb_legitimate",
    "cb_start_state",
    "rb_legitimate",
    "rb_start_state",
]
