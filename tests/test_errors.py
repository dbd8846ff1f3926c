"""Every library guard that no other test reaches raises its own exception
type with its own one-line message.  The degree cases all come from
labels(), the one check that a label degree lies in 0..width."""

import random
import re

import numpy as np
import pytest

from divcurl.forms import (
    Form,
    lp_norm,
    partial,
    sample_form,
    sobolev_norm,
    wedge,
    zero_form,
)
from divcurl.gridfield import GridField
from divcurl.inequalities import (
    BumpSpec,
    gn_ratio,
    make_closed_source,
    make_coclosed_source,
    scalar_symbol_array,
)
from divcurl.multiindex import (
    complement,
    embed_multiindex,
    labels,
    make_ordering,
    multiindices,
)
from divcurl.operators import (
    OperatorSpec,
    apply_T,
    box_coeff_tensor,
    spec_for,
    tt_single_orientation,
    vs_reduction,
)
from divcurl.symbol import lh_quotient, symbol_rayleigh
from divcurl.trigpoly import TrigPoly

S211, S221, S222, S233 = (spec_for(2, 1, 1), spec_for(2, 2, 1),
                          spec_for(2, 2, 2), spec_for(2, 3, 3))
TRIG = Form(2, 3, 1, {(1,): TrigPoly.wave(2, (1, 0), 0, 1)})
GRID = Form(2, 3, 1, {(1,): GridField(2, 4, np.ones((4, 4)))})


CASES = {
    # labels(): the degree of a label, a form and a tensor
    "labels above width": (
        lambda: labels(3, 4), ValueError, "label degree 4 out of range 0..3"),
    "form degree below 0": (
        lambda: Form(2, 3, -1, {}), ValueError,
        "label degree -1 out of range 0..3"),
    "form degree above N": (
        lambda: zero_form(2, 3, 4), ValueError,
        "label degree 4 out of range 0..3"),
    "source tensor degree above n": (
        lambda: box_coeff_tensor(S221, 3, True), ValueError,
        "label degree 3 out of range 0..2"),
    # symbol.py
    "direction length": (
        lambda: lh_quotient(S211, 0, (1, 2, 3)), ValueError,
        "direction must have 2 entries"),
    "zeta length": (
        lambda: symbol_rayleigh(S211, 0, (1, 1), (1, 2)), ValueError,
        "zeta length must match the label count"),
    # operators.py
    "spec parameters": (
        lambda: OperatorSpec(1, 1, 1, 1, None), ValueError,
        "need n >= 2, k >= 1 and 1 <= ell <= k"),
    "spec ordering": (
        lambda: OperatorSpec(2, 2, 1, 3, make_ordering(2, 2, 2, 3)),
        ValueError, "ordering parameters do not match the spec"),
    "trivial source operator": (
        lambda: apply_T(S233, zero_form(2, 2, 0)), ValueError,
        "source operator is trivial for n < ell"),
    "single orientation without room": (
        lambda: tt_single_orientation(S221, zero_form(2, 3, 2)), ValueError,
        "no room for two degree raises at this q"),
    "contract shape": (
        lambda: box_coeff_tensor(S221, 0, False).contract(zero_form(2, 3, 1)),
        ValueError, "form shape does not match the tensor"),
    "reduction space": (
        lambda: vs_reduction(S221, zero_form(2, 2, 0)), ValueError,
        "form does not live on the spec's hybrid space"),
    "reduction degree": (
        lambda: vs_reduction(S221, zero_form(2, 3, 0)), ValueError,
        "reduction needs degree N - ell"),
    # forms.py
    "form dimensions": (
        lambda: Form(3, 2, 0, {}), ValueError, "need 1 <= n <= N"),
    "trig coefficient dimension": (
        lambda: Form(2, 3, 0, {(): TrigPoly.zero(3)}), ValueError,
        "coefficient dimension mismatch"),
    "grid coefficient dimension": (
        lambda: Form(2, 3, 0, {(): GridField.zero(3, 4)}), ValueError,
        "coefficient dimension mismatch"),
    "coefficient type": (
        lambda: Form(2, 3, 0, {(): 1.0}), TypeError,
        "coefficients must be TrigPoly or GridField"),
    "sum with a non-form": (
        lambda: TRIG + 1, TypeError, "expected a Form"),
    "sum of shapes": (
        lambda: TRIG + zero_form(2, 3, 2), ValueError,
        "form shape mismatch: (2, 3, 1) vs (2, 3, 2)"),
    "sum of backends": (
        lambda: TRIG + GRID, ValueError, "backend mismatch"),
    "partial length": (
        lambda: partial(TRIG, (1,)), ValueError,
        "multi-index length must be n or N"),
    "partial order": (
        lambda: partial(TRIG, (-1, 0)), ValueError,
        "negative derivative order"),
    "wedge spaces": (
        lambda: wedge(TRIG, zero_form(2, 2, 0)), ValueError,
        "wedge needs matching (n, N)"),
    "wedge backends": (
        lambda: wedge(TRIG, GRID), ValueError, "backend mismatch"),
    "lp exponent": (
        lambda: lp_norm(TRIG, 0.5), ValueError, "p must be >= 1"),
    "sobolev order": (
        lambda: sobolev_norm(TRIG, -1, 2), ValueError,
        "order must be non-negative"),
    "sample a grid form": (
        lambda: sample_form(GRID, 8), ValueError,
        "sample_form expects a TrigPoly-backed form"),
    # gridfield.py
    "grid samples shape": (
        lambda: GridField(2, 4, np.zeros(4)), ValueError,
        "expected shape (4, 4), got (4,)"),
    "grid resolutions": (
        lambda: GridField.zero(2, 4) + GridField.zero(2, 8), ValueError,
        "grid mismatch"),
    # inequalities.py
    "bump dimension": (
        lambda: BumpSpec(1.0, (1.0,), (0.3,)).field(2, 8), ValueError,
        "bump dimension mismatch"),
    "gn on a hybrid form": (
        lambda: gn_ratio(S221, zero_form(2, 3, 0, "grid", 8)), ValueError,
        "gn_ratio expects a source form"),
    "closed source below ell": (
        lambda: make_closed_source(S211, 0, random.Random(0), 8), ValueError,
        "no closed range forms below degree ell"),
    "coclosed source for even ell": (
        lambda: make_coclosed_source(S222, 0, random.Random(0), 8),
        ValueError, "T* T* = 0 needs odd ell"),
    "coclosed source above n - ell": (
        lambda: make_coclosed_source(S211, 2, random.Random(0), 8),
        ValueError, "no coclosed range forms above degree n - ell"),
    "scalar symbol for ell = 2": (
        lambda: scalar_symbol_array(S222, 8), ValueError,
        "spectral inversion implemented for ell = 1"),
    # multiindex.py
    "multi-index variables": (
        lambda: multiindices(0, 1), ValueError, "need at least one variable"),
    "multi-index order": (
        lambda: multiindices(2, -1), ValueError,
        "order must be non-negative"),
    "embedding too short": (
        lambda: embed_multiindex((1, 2, 3), 2), ValueError,
        "multi-index longer than target dimension"),
    "complement entries": (
        lambda: complement((0,), 3), ValueError, "label entries out of range"),
    # trigpoly.py
    "frequency length": (
        lambda: TrigPoly(2, {((1,), 0): 1}), ValueError,
        "frequency length does not match dimension"),
    "sum dimensions": (
        lambda: TrigPoly.zero(2) + TrigPoly.zero(3), ValueError,
        "dimension mismatch"),
    "product dimensions": (
        lambda: TrigPoly.zero(2) * TrigPoly.zero(3), ValueError,
        "dimension mismatch"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_guard_raises_its_one_line_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
