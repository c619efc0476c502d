"""The public names of `import stoqg`."""

import re
import types
from pathlib import Path

import stoqg

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = (
    "Basis",
    "BlowupError",
    "DIRICHLET_C1",
    "EnsembleRecord",
    "EnstrophyTrace",
    "InitialCondition",
    "ModelParams",
    "SimConfig",
    "SummabilityError",
    "asymptotics_check",
    "build_spectrum",
    "estimate_enstrophy",
    "fit_and_validate_bound",
    "gamma_threshold",
    "holder_exponent_fit",
    "linear_law",
    "linear_oracle_check",
    "phi_alpha",
    "run_ensemble",
    "snap_output_times",
    "spectrum_from_list",
    "theorem2_shape",
    "trace",
    "trace_class_envelope",
    "validate_bound",
)


def test_public_names_are_pinned():
    # submodules are attributes of the package once imported, so they are left out
    names = {name for name, value in vars(stoqg).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(names) == sorted(PUBLIC_NAMES)


def test_readme_lists_the_public_names():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("`import stoqg` exports"):text.index("`tests/test_api.py` pins")]
    assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(PUBLIC_NAMES)
