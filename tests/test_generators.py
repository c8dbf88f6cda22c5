"""The generator table on its three representations: PadicInt, numpy, int triples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markoff_padic.census import (
    _bfs_exact,
    _decode,
    _encode,
    _letter_func,
    residue_bfs,
)
from markoff_padic.padic import PadicInt
from markoff_padic.surface import (
    ALL_LETTERS,
    SurfacePoint,
    apply_generator,
    eval_P,
    point,
)


def test_unknown_letter_raises_on_every_path():
    pt = point(3, 3, 3, 0, 7, 3)
    with pytest.raises(ValueError, match="bogus"):
        apply_generator("bogus", pt)
    with pytest.raises(ValueError, match="bogus"):
        _letter_func("bogus", 49)
    with pytest.raises(ValueError, match="bogus"):
        list(residue_bfs((1, 2, 3), 7, ("bogus",)))
    with pytest.raises(ValueError, match="bogus"):
        _bfs_exact((1, 2, 3), 7, 4, ("bogus",))


@st.composite
def _residue_triples(draw):
    p = draw(st.sampled_from((5, 7, 11, 13)))
    k = draw(st.integers(1, 3))
    M = p**k
    triple = tuple(draw(st.integers(0, M - 1)) for _ in range(3))
    return p, k, triple


@settings(max_examples=300, deadline=None)
@given(_residue_triples(), st.sampled_from(ALL_LETTERS))
def test_letter_agrees_across_representations(case, letter):
    p, k, triple = case
    M = p**k
    x, y, z = (PadicInt(p, k, c) for c in triple)
    padic_pt = SurfacePoint(x, y, z, eval_P(x, y, z))
    padic_image = apply_generator(letter, padic_pt).residues()

    code = np.array([_encode(*triple, M)], dtype=np.int64)
    numpy_image = tuple(int(c[0]) for c in _decode(_letter_func(letter, M)(code), M))

    orbit = [t for t, _ in residue_bfs(triple, M, (letter,))]
    bfs_image = orbit[-1]

    assert padic_image == numpy_image == bfs_image
    # an involution: the orbit under the one letter is {t, g(t)}
    assert orbit == ([triple] if bfs_image == triple else [triple, bfs_image])
    assert all(0 <= c < M for c in bfs_image)

    def markoff(t):
        a, b, c = t
        return (a * a + b * b + c * c - a * b * c) % M

    assert markoff(bfs_image) == markoff(triple)
