"""Robust, secure, private retrieval of scalar linear file combinations.

Users cache packets laid out by a placement delivery array, blind their
demands with one-time blend vectors, and decode their requested linear
combination from any J of H servers even when up to A of them answer
dishonestly.  Noise padding keeps any I stores or the full transmission
independent of the library; errors-and-erasures decoding over a prime
field absorbs the corruption.

Layout: prime field arithmetic (ff), placement delivery arrays (pda),
errors-and-erasures codes (rscode), the storage/placement/delivery/
decode pipeline (protocol), exact leakage and recovery audits
(audit), achievable triples and converse bounds (analysis), seeded
end-to-end simulation (sim), and the command line front end (cli).
"""

from .analysis import (AnalysisError, AnalysisInvariantError, BoundReport,
                       BoundRow, CurvePoint, ManCurve, MscTriple, default_grid,
                       f_bound, gap_report, load_lower_bound, load_term,
                       man_curve, msc_from_pda, storage_lower_bound)
from .audit import (AuditError, AuditReport, InfeasibleAuditError, MUTATIONS,
                    audit_demand_privacy, audit_robustness,
                    audit_server_security, audit_signal_security, exact_mi,
                    run_audits)
from .ff import (FieldError, NotPrimeError, PrimeField, ZeroInverseError, horner,
                 is_prime)
from .pda import (ConditionAError, ConditionBError, Pda, PdaError,
                  PdaParseError, STAR, StarCountError, SymbolGapError, man_pda,
                  parse, serialize, validate)
from .protocol import (ALL_STRATEGIES, CacheSide, ConfigError, DecodedLibraries,
                       DecodedStreams, DimensionMismatch, HonestPermutedSlices,
                       HonestPlusConstant, Library, MissingSignals, ProtocolError, Randomness,
                       STRATEGY_NAMES, ServerStore, SystemParams,
                       UniformRandom, UserCache, ZeroPayload,
                       adversary_column, adversary_content, adversary_signal,
                       build_storage, cache_side, decode_group, decode_streams, load_config,
                       make_query, params_from_json, place_user, recover_library,
                       server_signal, strategy_key, user_decode, with_seed)
from .rscode import (AmbiguousCandidate, Codeword, DecodingFailure, EvalPoints,
                     NoCandidate, brute_force_decode, decode, decode_columns, encode)
from .sim import RunResult, Scenario, ScenarioError, run, sweep

__version__ = "0.1.0"

__all__ = [
    # analysis
    "AnalysisError", "AnalysisInvariantError", "BoundReport", "BoundRow",
    "CurvePoint", "ManCurve", "MscTriple", "default_grid", "f_bound",
    "gap_report", "load_lower_bound", "load_term", "man_curve",
    "msc_from_pda", "storage_lower_bound",
    # audit
    "AuditError", "AuditReport", "InfeasibleAuditError", "MUTATIONS",
    "audit_demand_privacy", "audit_robustness", "audit_server_security",
    "audit_signal_security", "exact_mi", "run_audits",
    # ff
    "FieldError", "NotPrimeError", "PrimeField", "ZeroInverseError", "horner",
    "is_prime",
    # pda
    "ConditionAError", "ConditionBError", "Pda", "PdaError", "PdaParseError",
    "STAR", "StarCountError", "SymbolGapError", "man_pda", "parse",
    "serialize", "validate",
    # protocol
    "ALL_STRATEGIES", "CacheSide", "ConfigError", "DecodedLibraries",
    "DecodedStreams",
    "DimensionMismatch", "HonestPermutedSlices", "HonestPlusConstant", "Library",
    "MissingSignals", "ProtocolError", "Randomness", "STRATEGY_NAMES",
    "ServerStore", "SystemParams", "UniformRandom", "UserCache",
    "ZeroPayload", "adversary_column", "adversary_content", "adversary_signal",
    "build_storage", "cache_side", "decode_group", "decode_streams", "load_config",
    "make_query", "params_from_json", "place_user", "recover_library",
    "server_signal", "strategy_key", "user_decode", "with_seed",
    # rscode
    "AmbiguousCandidate", "Codeword", "DecodingFailure", "EvalPoints",
    "NoCandidate", "brute_force_decode", "decode", "decode_columns", "encode",
    # sim
    "RunResult", "Scenario", "ScenarioError", "run", "sweep",
]
