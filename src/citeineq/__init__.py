"""Citation inequality toolkit.

Quantifies how unevenly a researcher's citations are spread over their
publications: Gini, Kolkata, and Hirsch indices over sliding career
windows, the linear k-vs-g relation with its extrapolated g = k crossing,
and the crossing classification against the 0.82 precursor mark.
"""

from .errors import (
    AllSkipped,
    BadSpec,
    CiteIneqError,
    DegenerateFit,
    EmptyInput,
    EmptyProfile,
    NoWindows,
    OutOfRange,
    ParseError,
    SchemaError,
    ValidationError,
    ZeroCitations,
    ZeroTotal,
)
from .ingest import SynthSpec, load_manifest, load_profile, synth_profile, write_profile
from .landau import (
    ANALYTIC_SLOPE,
    EMPIRICAL_SLOPE,
    FitResult,
    LandauCoefficients,
    fit_free_intercept,
    fit_k_vs_g,
    landau_coefficients,
    landau_k_approx,
    landau_k_exact,
)
from .lorenz import (
    IndexPair,
    LorenzCurve,
    build_lorenz,
    gini,
    hirsch,
    index_pair,
    index_pairs,
    kolkata,
)
from .profiles import Publication, ResearcherProfile
from .soc import (
    SOC_MARK,
    CareerSummary,
    CrossingResult,
    SocConfig,
    career_summary,
    cites_per_paper,
    classify_crossing,
    hirsch_sqrt_diagnostic,
    hirsch_sqrt_ratio,
    peak_ratio,
)
from .windows import (
    IndexSeries,
    WindowConfig,
    WindowEntry,
    YearlyAverage,
    window_series,
    yearly_average,
)

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC_SLOPE",
    "AllSkipped",
    "BadSpec",
    "CareerSummary",
    "CiteIneqError",
    "CrossingResult",
    "DegenerateFit",
    "EMPIRICAL_SLOPE",
    "EmptyInput",
    "EmptyProfile",
    "FitResult",
    "IndexPair",
    "IndexSeries",
    "LandauCoefficients",
    "LorenzCurve",
    "NoWindows",
    "OutOfRange",
    "ParseError",
    "Publication",
    "ResearcherProfile",
    "SOC_MARK",
    "SchemaError",
    "SocConfig",
    "SynthSpec",
    "ValidationError",
    "WindowConfig",
    "WindowEntry",
    "YearlyAverage",
    "ZeroCitations",
    "ZeroTotal",
    "build_lorenz",
    "career_summary",
    "cites_per_paper",
    "classify_crossing",
    "fit_free_intercept",
    "fit_k_vs_g",
    "gini",
    "hirsch",
    "hirsch_sqrt_diagnostic",
    "hirsch_sqrt_ratio",
    "index_pair",
    "index_pairs",
    "kolkata",
    "landau_coefficients",
    "landau_k_approx",
    "landau_k_exact",
    "load_manifest",
    "load_profile",
    "peak_ratio",
    "synth_profile",
    "window_series",
    "write_profile",
    "yearly_average",
]
