"""Functionality decision and bimachine compilation for transducers
whose outputs live in a monoid with computable most general equalizers.

The pieces: monoid instances and the equalizer calculus (monoid),
transducers and subset constructions (fsa), the squared automaton and
its valuation (squared), the functionality decision (functionality),
deterministic two-pass machines (bimachine), the equalizer-based
compiler (compiler), the unambiguous-expansion baseline (classical),
the T_n comparison experiment (benchmark), and text formats plus the
command line (cli).
"""

from .bimachine import AlphabetError, Bimachine, evaluate
from .benchmark import BenchReport, BenchRow, make_tn, run_bench
from .classical import check_pseudo_deterministic, classical_compile, unambiguous_expand
from .compiler import CompileError, NotFunctionalError, compile
from .fsa import (
    StateLimitExceeded,
    Transducer,
    Transition,
    enumerate_outputs,
    make_transducer,
    trim,
)
from .functionality import FunctionalityVerdict, Witness, test_functionality
from .monoid import (
    DescriptorMismatch,
    FreeWords,
    Integers,
    Monoid,
    MonoidValue,
    NonNegRationals,
    PairOf,
    eta,
    format_descriptor,
    format_value,
    gamma_n,
    op,
    parse_descriptor,
    parse_value,
    solve_right,
)

_CLI_NAMES = {"bimachine_from_text", "bimachine_to_text", "cli_main", "format_transducer",
              "parse_transducer"}


def __getattr__(name):
    # bimc.cli loads on first use, so that python -m bimc.cli runs it fresh
    if name not in _CLI_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cli
    return globals().setdefault(name, getattr(cli, name))


__all__ = [
    "AlphabetError",
    "BenchReport",
    "BenchRow",
    "Bimachine",
    "CompileError",
    "DescriptorMismatch",
    "FreeWords",
    "FunctionalityVerdict",
    "Integers",
    "Monoid",
    "MonoidValue",
    "NonNegRationals",
    "NotFunctionalError",
    "PairOf",
    "StateLimitExceeded",
    "Transducer",
    "Transition",
    "Witness",
    "bimachine_from_text",
    "bimachine_to_text",
    "check_pseudo_deterministic",
    "classical_compile",
    "cli_main",
    "compile",
    "enumerate_outputs",
    "eta",
    "evaluate",
    "format_descriptor",
    "format_transducer",
    "format_value",
    "gamma_n",
    "make_tn",
    "make_transducer",
    "op",
    "parse_descriptor",
    "parse_transducer",
    "parse_value",
    "run_bench",
    "solve_right",
    "test_functionality",
    "trim",
    "unambiguous_expand",
]
