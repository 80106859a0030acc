"""The optimizer substrate: LLVM-style intra-procedural passes.

Importing this package registers every pass with the pass registry, so
``optimize(function, ["adce", "gvn", ...])`` and :class:`PassManager`
pipelines work out of the box.  The set of passes matches the paper's
evaluation pipeline (ADCE, GVN, SCCP, LICM, loop deletion, loop
unswitching, DSE) plus the helpers it mentions (mem2reg to place φ-nodes,
instcombine/constprop, simplifycfg) and a family of intentionally buggy
passes used to demonstrate that the validator catches miscompilations.
"""

from .pass_manager import (
    PAPER_PIPELINE,
    PassManager,
    PassSnapshot,
    available_passes,
    checkpoint_chain,
    get_pass,
    optimize,
    register_pass,
)

# Importing the pass modules registers them.
from .adce import adce
from .buggy import ALL_BUGGY_PASSES, BUGGY_PIPELINE
from .constfold import fold_int_binary, fold_icmp, fold_cast
from .dse import dse
from .gvn import gvn
from .instcombine import constant_propagation, instcombine, simplify_instruction
from .licm import licm
from .loop_deletion import loop_deletion
from .loop_unswitch import loop_unswitch
from .mem2reg import mem2reg
from .sccp import sccp
from .simplifycfg import simplifycfg

__all__ = [
    "PassManager",
    "PassSnapshot",
    "PAPER_PIPELINE",
    "checkpoint_chain",
    "register_pass",
    "get_pass",
    "available_passes",
    "optimize",
    "adce",
    "dse",
    "gvn",
    "instcombine",
    "constant_propagation",
    "simplify_instruction",
    "licm",
    "loop_deletion",
    "loop_unswitch",
    "mem2reg",
    "sccp",
    "simplifycfg",
    "ALL_BUGGY_PASSES",
    "BUGGY_PIPELINE",
    "fold_int_binary",
    "fold_icmp",
    "fold_cast",
]
