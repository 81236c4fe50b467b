"""Numerical toolkit for phase-based interference alignment on constant
complex channels: beamformer construction, feasibility verification, rate
evaluation, and the exact 6/5 allocation bound in closed form."""

import importlib

# Each public name and the submodule that defines it, listed only here: each
# submodule reads its `__all__` from this map.  `import acsalign` loads none of
# them: a name is imported from its home module on first access, so the
# pure-integer bound and the command line's help never pull in numpy.
_HOMES = {name: home for home, names in (
    ("bound", (
        "AllocationCheck", "AllocationProfile", "BoundResult", "check_allocation", "max_dof",
    )),
    ("channel", (
        "NUM_CROSS_SUMS", "TWO_PI", "ComplexChannelMatrix", "ExtendedRotation",
        "construct_special_channel", "dump_channel",
        "implicated_receiver", "lift", "load_channel", "mod_distance",
        "rotation_matrix", "sample_channel", "special_channel_kinds",
    )),
    ("rates", (
        "DEFAULT_SNR_GRID_DB", "DofEstimate", "RankDeficientReceiverError",
        "RateReport", "baseline_rate_profile",
        "estimate_baseline_dof", "estimate_dof", "fit_dof", "sum_rate",
        "validate_snr_grid",
    )),
    ("schemes", (
        "CANDIDATE_DRAWS", "GENERIC_PHASE_MARGIN", "SCHEME_TAGS", "SCHEMES",
        "AlignmentPair", "BeamformerSet", "SchemeSpec",
        "build_acs_ic3", "build_cognitive_x", "build_phase_alignment", "build_scheme",
        "build_uplinks", "build_x_channel", "sample_feasible_channel", "scheme_spec",
    )),
    ("verify", (
        "CONDITION_SETS", "PHASE_TOL", "RATIO_TOL", "SV_DEPENDENT", "SV_INDEPENDENT",
        "ConditionRecord", "ConditionReport", "ContainmentDemo",
        "DegenerateAnglesError", "IndependenceReport", "InfeasibleChannelError",
        "ReceiverIndependence", "alignment_residual", "check_conditions",
        "demonstrate_containment", "independence_margin", "receiver_stack",
        "solve_phasor_pair",
    )),
) for name in names}

__version__ = "0.1.0"

__all__ = list(_HOMES)


def _exports(module_name: str) -> list[str]:
    """The public names whose home is the submodule `module_name`, in map order."""
    home = module_name.rpartition(".")[2]
    return [name for name, where in _HOMES.items() if where == home]


def _extension(value, lowest: int = 1, message: str = "extension must be a positive integer") -> int:
    """`value` as an int, or ValueError(message) unless it is an integer of at least
    `lowest`: the one integer rule, for a slot extension S and an allocation's entries."""
    try:
        if int(value) == value and value >= lowest:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(message)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))
