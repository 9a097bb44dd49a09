"""Family constants shared by the solution and verify tests."""

from fhnx.solutions import family_catalog

# constructor arguments that move the families off their default phase and
# shift, so a test sees every term of the closed forms
FAMILY_CONSTANTS = {
    "JacobiSnSteady": dict(c1=0.3, c2=0.8),
    "NonClassicalExp": dict(c1=1.0, c2=1.0),
    "TanhFrontPlus": dict(x0=0.2),
    "TanhFrontMinus": dict(x0=-0.2),
}
STEADY_TAGS = tuple(tag for tag, info in family_catalog().items() if info["steady"])
