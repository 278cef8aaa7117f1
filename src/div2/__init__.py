"""Division by two, constructively.

Subpackages cover the two-sided binary sequences and their extended-integer
classification (`sequences`), the infinite dihedral group and its actions
(`dihedral`), the explicit even/odd pairing family (`theta`), the finite
choice-free divider (`divider`), and the local-rule counterexample machinery
(`localrules`).

Importing the package loads none of them.  Each public name below is
imported from its module on first use (PEP 562), so ``import div2.cli``
costs a command only the modules it runs.
"""

import importlib

# the module that defines each public name; the modules are public names too
_NAMES = {
    "dihedral": ("IDENTITY", "R", "T", "DihedralElt", "ParityPoint"),
    "divider": (
        "CopyElem",
        "FinInstance",
        "InstanceError",
        "chi_trace",
        "divide",
        "theta_cyclic_instance",
        "verify_matching",
    ),
    "localrules": (
        "LinearTail",
        "LocalRule",
        "SearchReport",
        "WindowPattern",
        "bijectivity_witness",
        "eventually_linear",
        "exhaustive_search",
        "naive_family_witness",
        "parity_counts",
        "r_equivariance_witness",
    ),
    "sequences": ("MINUS_INF", "PLUS_INF", "BiSeq", "ZInf", "embed", "fin"),
    "theta": (),
}
_HOME = {name: module for module, names in _NAMES.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)  # which also binds the module here
    return module if home == name else getattr(module, name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
