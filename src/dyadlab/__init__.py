"""dyadlab: numerical experiments with weighted inequalities on the dyadic tree."""

from .tree import (
    DomainError,
    DyadicIndex,
    HaarExpansion,
    InvariantError,
    LeafFunction,
    ROOT,
    StructureError,
    average,
    haar_analysis,
    haar_coefficient,
    haar_synthesis,
    internal_indices,
    martingale_difference,
)
from .weights import (
    A2Report,
    HaarSplit,
    Weight,
    WeightedHaar,
    a2_characteristic,
    dual,
    gen_cascade,
    gen_power,
    haar_split,
    weighted_haar,
    weighted_norm,
)
from .shifts import (
    ShiftSpec,
    form_value,
    shift_form,
)
from .embedding import (
    CarlesonMeasure,
    FourTerms,
    carleson_box_check,
    carleson_measure_of,
    carleson_norm,
    duality_product,
    four_terms,
    key_sum,
    maximal_weighted,
)
from .bellman import (
    BellmanPoint,
    in_domain,
    point_from_data,
    segment_in_domain,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
