"""Every threshold of the package lives in flagf.tolerances."""

import tokenize
from pathlib import Path

import flagf

PACKAGE = Path(flagf.__file__).parent


def test_no_threshold_literal_outside_the_table():
    # A float literal with a negative exponent (1e-9 style) is a threshold;
    # docstrings and comments are not NUMBER tokens, so prose may quote values.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NUMBER and "e-" in tok.string.lower():
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not found, found
