import pytest

from latmap.grid import SRC, LatticeDim, build_children


def test_dim_validation():
    with pytest.raises(ValueError):
        LatticeDim(0, 3)
    d = LatticeDim(3, 4)
    assert d.cells == 12
    assert d.dst == 12


def test_children_3x3():
    dim = LatticeDim(3, 3)
    ch = build_children(dim)
    assert ch[SRC] == (0, 1, 2)
    # top row: source above, one cell below, no horizontals
    assert ch[0] == (SRC, 3)
    assert ch[1] == (SRC, 4)
    # middle row: vertical both ways plus horizontals
    assert ch[4] == (1, 3, 5, 7)
    assert ch[3] == (0, 4, 6)
    # bottom row: cell above and the destination
    assert ch[6] == (3, dim.dst)
    assert ch[7] == (4, dim.dst)


def test_children_2x2_has_no_horizontals():
    dim = LatticeDim(2, 2)
    ch = build_children(dim)
    assert ch[0] == (SRC, 2)
    assert ch[1] == (SRC, 3)
    assert ch[2] == (0, dim.dst)
    assert ch[3] == (1, dim.dst)


def test_horizontal_edges_only_in_middle_rows():
    dim = LatticeDim(5, 4)
    ch = build_children(dim)
    c = dim.cols
    for cell in range(dim.cells):
        row = cell // c
        horiz = [x for x in ch[cell] if 0 <= x < dim.cells and abs(x - cell) == 1
                 and x // c == row]
        if row == 0 or row == dim.rows - 1:
            assert horiz == []
        else:
            assert len(horiz) == (1 if cell % c in (0, c - 1) else 2)
