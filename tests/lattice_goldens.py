"""Known-answer data shared by the test modules.

Most of this data is published reference data, frozen verbatim.  Some of
it is refuted by an independent oracle, the flood-fill connectivity check
in ``tests/test_acceptance.py``, and is kept verbatim with the refutation
pinned next to it:

- ``LISTING_6X6`` has the truth table of ``GRID_6X6`` but is not its solve
  (``LISTING_6X6_MERGED_LINES``, ``LISTING_6X6_ABSORBED_LINES``);
- two of the ``WITNESSES`` grids do not realize their functions
  (``REFUTED_WITNESSES``).

``NOSPLIT8_ONE_LATTICE_3X3`` and ``SPLIT_WITNESSES_3X3`` were found by
search and are flood-fill verified; the acceptance tests check them again.
"""

from __future__ import annotations

# Irredundant path counts for every r x c dimension with r, c in 2..7.
PATH_COUNTS = {
    2: [2, 3, 4, 5, 6, 7],
    3: [4, 9, 16, 25, 36, 49],
    4: [6, 17, 36, 67, 118, 203],
    5: [10, 37, 94, 205, 436, 957],
    6: [16, 77, 236, 621, 1668, 4883],
    7: [26, 163, 602, 1905, 6562, 26317],
}

# Path count and sha256 of ``serialize_paths(enumerate_paths(r x c))`` for
# every 1 <= r, c <= 8: the path tuples and their order are pinned.  Rows 1-7
# were recorded before the DFS moved to a bitmask prune and mirror halving,
# row 8 before it wrote its paths straight into length buckets.
PATH_DIGESTS = {
    (1, 1): (1, "4e3a24612b0482a1a900e3e8f9924d8cac3eed3f2e9701faef818f239196d637"),
    (1, 2): (2, "fc05466f7cc7fdf7f12da83916dc1a8a938ec744ad683cb862a2b57c8c7d5bb2"),
    (1, 3): (3, "87396f5d0a3b33b17ef3150acd0f6bac7d942b8b7a421a7ca4f90491a85018ed"),
    (1, 4): (4, "2c4a9b9b80fb02fce0748f931c78e6e5d7cb823dfc28e800870c3e96b22ccb4a"),
    (1, 5): (5, "4d1595623601e536b7696355c7f80a08c6eeb096c18238ba194579df113fc8b9"),
    (1, 6): (6, "630ed861aa6649499a897afc4a15cbfd27c551d52d8dcf6243d2f774648ad3e6"),
    (1, 7): (7, "ff4446ca2375fe2c8eb0c25783a8cc9d9d58032910d49f4234f5744ca16ebdc7"),
    (1, 8): (8, "db186bb2aed84da232be8e01f80fc1997b3af2e316762d9304d74a3a0b045b3f"),
    (2, 1): (1, "428d4ce951c3f280073a659bf29391b6e79189d0746d59e82d5684d641b8e50b"),
    (2, 2): (2, "1f26988255d04776e3777c29815c0d0fde39464f2d12735e196f47a4b2f2c9e8"),
    (2, 3): (3, "b086b43434a3a038ad75c8b948e04c2ef806bf2008714c2f4da7c6b4db002642"),
    (2, 4): (4, "a72a0173468b449008c23db32879d7d68458c117b105edc45ede5f53ac864d4b"),
    (2, 5): (5, "14d788699cb2f947bbbd3edbcd1a0ca89411714b21eff52b3b2bbfcec4bf926c"),
    (2, 6): (6, "5b76584c3f2a6dec40ef7cf23a62aa118f485307c15e82a44937275cf53195d0"),
    (2, 7): (7, "0399230c194df2f88c64163ebd83a852e26cea94303510e5adc3b42b28a361ed"),
    (2, 8): (8, "bbe22437dbfd563080aef186853aca3a31c7e3f5a01387e2bce7dc7fbabcb469"),
    (3, 1): (1, "a23c71badead38d62b997c326f3b72f48ec1bd22fc82c3b6e75b6ff96fc8a706"),
    (3, 2): (4, "0e94c1d83eb6bd5bddfcf5cc7f2ccc5b49499ad9a6b0f024f603c0e9f2808d27"),
    (3, 3): (9, "829659255579b05343854a10ac005ee835d06c90fbc056afda8880df169f4737"),
    (3, 4): (16, "72648ef59e3095a6dce8ddcd063d8625dd4f69cfb13ee2dc751bcaa61804b31c"),
    (3, 5): (25, "aba8516a66a6143238dcfa7d4877c5685fda076fa819f0c577244ea6fe4aacb9"),
    (3, 6): (36, "e0bb644bc9b36b716efa7b0204cdbef351a50363b64ace9910d93e49ba845ba8"),
    (3, 7): (49, "6678d3343b83f44b38c3c125588f867bece317e3dfc4dc542d0dfcd2a54b6fd8"),
    (3, 8): (64, "f2b07ed46699e7530f56bbb3869bc2fd471ed8cdd3d836faeb6b7276c3888b18"),
    (4, 1): (1, "4175ba2ed7cfbe98f7ac287cbbfcc1c2778585b2e8da8814dd8919c34c7d1922"),
    (4, 2): (6, "8f553605cc929c680a4bd9df218246607947ee2feed9848a8721dd160fef05a2"),
    (4, 3): (17, "0b61270259098d9865f158385a9a5b58f6921cf8fd19397706c5da6698d344bc"),
    (4, 4): (36, "6f0092a605c28281ccd9cc42dab2212a2b589b2ea4cef593246c56431ee497ad"),
    (4, 5): (67, "8d758ac571046e381173336c4b741022754d753ee680793d1202bb1ed3c62c36"),
    (4, 6): (118, "4d79c49bdc103f3c201bd8c005f48329a04a8713cd4026bfa24cba1b64304c0d"),
    (4, 7): (203, "9e66984db2958b330778a0aa3dd472e7053159b7d4616a8bc2574ce44987d9d4"),
    (4, 8): (344, "1b98311e117923d3ad0d472217c3aa397289e00100ce722baab5cce6c9d29efc"),
    (5, 1): (1, "b54f619fc6acbc3b2a84d81d69838a55f63ddf27005318cd6fe5263b7b7c91f3"),
    (5, 2): (10, "7f5d6a88efb6ae43130858092471fcd7148449533041f70a8dceefbe8639537d"),
    (5, 3): (37, "6f169a9b3c664f85b12405f81f538cddddc8e253d4464174d98ee85ba1ef6e63"),
    (5, 4): (94, "6337d918b75962e03bed9fe0fc4b3155b368dfaaca405befd43a6215a658e6d0"),
    (5, 5): (205, "db63288e918c53ca1b15a86e603afbd905988bf2bbce2af7b3582f2214fd5b0d"),
    (5, 6): (436, "2362cf43ce211627130af11c36a53153dd1a7494ece4aadc9f8bb5f1f4f798b3"),
    (5, 7): (957, "f558d2907ac2d7335250c71e9ec59eb5a7f602caf8e1a0541b1871fdb55c5607"),
    (5, 8): (2146, "d2868c0a13c68e08ceb05d12a9e659e55191bd26780b7cdaddd1581c8bfbca29"),
    (6, 1): (1, "6c02f60018a361a641e042ad56c671fd344438a566c8d6b22c4fc5741e76fba6"),
    (6, 2): (16, "3a6f62d0398ec036ce644b2e573596e056fbe261e0dae7bdd9a81f6b7b1cf397"),
    (6, 3): (77, "9a6a3d9f2de431d5b7ea8ad96dc0c7719193602477978ae1d3322663a45a0309"),
    (6, 4): (236, "e7d0dee24daf83cc1d13382492f6036578f0fb5ad2c1f95ed4918b18ecf5d200"),
    (6, 5): (621, "3d366d4ffcd3fdec30b9da8c8dd947c114dc19e20b5b3aa26e17f95641153dc7"),
    (6, 6): (1668, "121ee164c32fa1a418f521a8b9eae1958bd588785672d62ed0450c26ccd1ff52"),
    (6, 7): (4883, "439ba1b0c4fe6165fb5aead2289f3c789598a7bb196a68cb6a7074d3e797c0b8"),
    (6, 8): (14880, "669391b25f01b15a6e397132cf61154d031d746455cdb7e7d6c55afb289f32b3"),
    (7, 1): (1, "5478235ba72af101b60eef0dc15fb1e7624dab139b672108d27cf0781f92d3af"),
    (7, 2): (26, "229d839f9cf94d8acf5787727ec1ee5e5e6fbfb2638b503c1eadcd4d171b42cd"),
    (7, 3): (163, "3347491dd2d3e81adca6eb85e2c3599e6d62fb229e77276ff1aa79da7fbf52b2"),
    (7, 4): (602, "4fcbb9b152d069c5fc840dd2eeb1e05a7e4e35c5da29bc08ae477a5f146b3026"),
    (7, 5): (1905, "16ff035d59ac585669e4e642d2b42011c3d36fe97a6c00305f3acca041654e16"),
    (7, 6): (6562, "dd9539bc6ba63ee9eac8d201419e8ae0fa6271bfca5e0cb6e6b7c5ee6b98ef50"),
    (7, 7): (26317, "b7b9df7192681d1b50cb98ee9c9df4f1eb906fb2077de7f24a17cd46a624573d"),
    (7, 8): (110838, "8f25ad03c88ec890cd610a94c1884a1a044c6ffddafa7b53ccbf3291c4f8ef4e"),
    (8, 1): (1, "978d9f66cf485eea10b2589dc82fa52c6008cfaadcdafde3f87ed5402835b30f"),
    (8, 2): (42, "97b29dca359eb583059ce205749b8e8a9443b1d2c60a7eef1991956822da6adb"),
    (8, 3): (343, "519cd0693d78adf7f75a6f8779a6f3b99a61e01fed2a9fb73afda8c52cdbdd5b"),
    (8, 4): (1528, "83264b2d2231a16e72ec910ee3d63d64fa1ec6fab98b5985063d94c245c8e4db"),
    (8, 5): (5835, "a7573bec391472dae781541d77faddb47f631799fc3c40d3e017a637d509fe05"),
    (8, 6): (25686, "71418fac5f9eed0c2489be42ab124fe41bc50074ed556a614f1200a87ea861c2"),
    (8, 7): (139231, "abb29279a60d24af13feca8ceaabf54d249f9cac2377d09f6dae34d12d949b86"),
    (8, 8): (797048, "5bd5bf5d8c4e1312fd55c8c9849dcec6d7fa13ec12e1fd15c0739eb0bc6a934f"),
}

# The nine 3x3 paths in canonical (length, lexicographic) order.
PATHS_3X3 = [
    (0, 3, 6),
    (1, 4, 7),
    (2, 5, 8),
    (0, 3, 4, 7),
    (1, 4, 3, 6),
    (1, 4, 5, 8),
    (2, 5, 4, 7),
    (0, 3, 4, 5, 8),
    (2, 5, 4, 3, 6),
]


def f(*terms):
    return [frozenset(t) for t in terms]


# A tiny hand-solvable grid: a / 1 / b on the left column, c column fill.
GRID_AB_C = (0, 101, 1, 1, 1, 998, 2, 2, 101)
GRID_AB_C_SOLVE = f({1, 2}, {1, 998})

# 6x6 reference grid whose published solve listing claims 51 product terms.
GRID_6X6 = (
    11, 15, 991, 3, 12, 13,
    5, 986, 992, 992, 15, 985,
    995, 1, 2, 100, 8, 0,
    998, 8, 987, 990, 996, 990,
    10, 997, 2, 994, 14, 993,
    986, 990, 3, 986, 0, 988,
)

# The published 51-line listing for GRID_6X6 ("count literal..." rows),
# refuted as its solve by LISTING_6X6_MERGED_LINES below.
LISTING_6X6 = """\
6 13 985 0 990 993 988
6 13 985 0 990 993 14
6 13 985 0 990 996 14
7 13 985 0 990 996 994 986
7 13 985 0 990 996 994 2
6 13 985 0 8 996 14
6 12 15 8 996 14 0
8 12 15 8 996 14 994 2 3
7 12 15 8 996 990 994 986
7 12 15 8 996 990 994 2
8 12 15 8 996 990 987 2 3
7 12 15 8 996 990 987 997
7 12 15 8 0 990 993 14
7 12 15 992 2 987 997 990
8 12 15 992 2 987 994 14 0
9 12 15 992 2 987 990 996 14 0
4 3 992 2 987
7 3 992 986 1 995 998 10
6 991 992 2 987 997 990
7 991 992 2 987 997 10 986
6 991 992 2 987 994 986
7 991 992 2 987 994 14 0
8 991 992 2 987 994 14 993 988
8 991 992 2 987 990 996 14 0
8 991 992 2 987 990 996 993 988
7 991 992 986 1 995 998 10
5 15 986 1 8 997
7 15 986 1 8 997 2 994
6 15 986 1 8 998 10
7 15 986 1 8 987 990 994
9 15 986 1 8 987 990 996 993 988
6 15 986 1 995 998 10
6 15 986 1 2 987 3
6 15 986 1 2 987 997
6 15 986 1 2 987 994
9 15 986 1 2 987 990 996 993 988
6 15 986 992 2 987 997
6 15 986 992 2 987 994
9 15 986 992 2 987 990 996 993 988
6 11 5 986 1 8 997
8 11 5 986 1 8 997 2 994
7 11 5 986 1 8 998 10
8 11 5 986 1 8 987 990 994
10 11 5 986 1 8 987 990 996 993 988
7 11 5 986 1 2 987 3
7 11 5 986 1 2 987 997
7 11 5 986 1 2 987 994
10 11 5 986 1 2 987 990 996 993 988
7 11 5 986 992 2 987 997
7 11 5 986 992 2 987 994
10 11 5 986 992 2 987 990 996 993 988
"""

LISTING_6X6_TERMS = [
    frozenset(int(tok) for tok in line.split()[1:])
    for line in LISTING_6X6.splitlines()
]

# Refutation of LISTING_6X6 as the solve of GRID_6X6 (1-based line numbers).
# These 8 lines are not the product of any path: with exactly their literals
# on the grid does not conduct.  Each is the merge t.v + t.v' of two solve
# terms, with v = d on lines 5 and 10 and v = k on the other six.
LISTING_6X6_MERGED_LINES = (5, 10, 27, 34, 37, 40, 46, 49)
# (contained, containing) line pairs: the listing is not absorbed.
LISTING_6X6_ABSORBED_LINES = ((27, 28), (40, 41))
# The solve of GRID_6X6 is its 59 minimal conducting literal sets that hold
# no complementary pair; the listing's function equals it by truth table.
SOLVE_6X6_TERM_COUNT = 59

# Mapper walkthrough functions, all on 3x3.
MAP_EX1 = f({997, 999}, {997, 5, 4, 998}, {1000, 5})
MAP_EX2 = f({997, 4}, {997, 999}, {996, 999}, {0, 4})
MAP_EX3 = f({4, 1000, 1}, {4, 1000, 998, 997}, {0, 998, 997}, {996})
MAP_EX4 = f({995, 3, 1000}, {995, 4}, {1000, 4}, {995, 997, 999})

# Published solution grids paired with the function they claim to realize.
# (name, rows, grid codes, function)
WITNESSES = [
    ("w_ex1_3x3", 3, (4, 999, 1000, 998, 997, 5, 100, 999, 101), MAP_EX1),
    ("w_ex2_3x3", 3, (4, 999, 0, 997, 101, 4, 101, 996, 0), MAP_EX2),
    ("w_ex3_3x3", 3, (4, 0, 996, 1000, 998, 996, 1, 997, 996), MAP_EX3),
    ("w_ex4_3x3", 3, (995, 1000, 995, 3, 4, 997, 1000, 4, 999), MAP_EX4),
    ("w_even8_4x4", 4,
     (3, 998, 3, 3, 0, 998, 996, 1, 3, 3, 101, 1, 998, 4, 999, 1000),
     f({998, 996, 1, 1000}, {3, 1, 4}, {3, 996, 999}, {998, 996, 999},
       {3, 1, 1000}, {3, 0, 4}, {3, 0, 999}, {998, 3})),
    ("w_even8_sub1_3x3", 3, (996, 4, 1000, 3, 3, 1, 999, 998, 3),
     f({3, 996, 999}, {3, 1, 4}, {3, 1, 1000}, {998, 3})),
    ("w_even8_sub2_3x3", 3, (3, 998, 100, 0, 996, 1, 4, 999, 1000),
     f({998, 996, 1, 1000}, {998, 996, 999}, {3, 0, 4}, {3, 0, 999})),
    ("w_odd7_4x4", 4,
     (1, 4, 1, 1000, 1000, 997, 2, 999, 101, 101, 997, 2, 1000, 0, 998, 996),
     f({1000, 999, 2, 996}, {1000, 999, 2, 997}, {1, 2, 997, 996},
       {1, 2, 997, 0}, {4, 997, 998}, {4, 997}, {1, 1000})),
    ("w_odd7_sub1_3x3", 3, (999, 997, 100, 996, 2, 1000, 1, 100, 999),
     f({1000, 999, 2, 996}, {1000, 999, 2, 997}, {1, 2, 997, 996})),
    ("w_odd7_sub2_3x3", 3, (2, 4, 1000, 0, 997, 1, 100, 101, 101),
     f({1, 2, 997, 0}, {4, 997, 998}, {4, 997}, {1, 1000})),
    ("w_nosplit8_4x4", 4,
     (3, 1000, 997, 4, 996, 3, 0, 101, 2, 998, 999, 997, 998, 1, 2, 1000),
     f({4, 997, 1000}, {4, 997, 999, 2}, {4, 0, 999, 2}, {4, 0, 3, 998, 1},
       {997, 0, 999, 2}, {1000, 3, 998, 1}, {3, 996, 998, 1},
       {3, 996, 0, 999, 2})),
    ("w_uneven8_4x4", 4,
     (999, 2, 4, 1, 0, 4, 3, 996, 997, 999, 1000, 998, 100, 999, 101, 997),
     f({1, 996, 998, 997}, {1, 996, 998, 1000}, {1, 996, 3, 1000},
       {4, 3, 1000}, {4, 3, 999}, {2, 4, 999}, {999, 0, 997}, {999, 0, 4})),
    ("w_uneven8_sub1_3x3", 3, (997, 100, 1, 1, 996, 1000, 3, 998, 100),
     f({1, 996, 998, 997}, {1, 996, 998, 1000}, {1, 996, 3, 1000})),
    ("w_uneven8_sub2_3x3", 3, (0, 2, 4, 999, 4, 3, 997, 999, 1000),
     f({4, 3, 1000}, {4, 3, 999}, {2, 4, 999}, {999, 0, 997}, {999, 0, 4})),
]

# Published witnesses that do not realize their functions, with an assignment
# (variable code -> value) at which the grid conducts while the function is 0.
# w_even8_sub1_3x3 realizes just d, and no one-cell edit repairs it.
# w_odd7_sub2_3x3 realizes a'b + d'e + acd' instead of a'b + d'e + abcd';
# two different one-cell edits repair it, so the intended grid is unknown.
REFUTED_WITNESSES = {
    "w_even8_sub1_3x3": {0: 1, 1: 1, 2: 1, 3: 1, 4: 0},
    "w_odd7_sub2_3x3": {0: 1, 1: 0, 2: 1, 3: 0, 4: 0},
}

# Decomposer study functions.
DECOMP_EVEN8 = WITNESSES[4][3]
DECOMP_NOSPLIT8 = WITNESSES[10][3]
DECOMP_UNEVEN8 = WITNESSES[11][3]

# Synthesizer goldens.
SYNTH_Q = f(set(range(7)), {0, 999, 4}, {1000, 2, 3, 995})
SYNTH_EIGHT = f({4, 997, 1000}, {4, 997, 999, 2}, {4, 0, 999, 2},
                {4, 3, 998, 1}, {1000, 3, 998, 1}, {3, 996, 998, 1},
                {3, 996, 0, 999, 2}, {997, 0, 999, 2})

# Flood-fill verified 3x3 grids (row-major codes).
# DECOMP_NOSPLIT8 is the same function as SYNTH_EIGHT and fits one lattice;
# its term 2 (c e d' b') is the consensus of terms 1 and 5, so the grid also
# realizes the other 7 terms on their own.
NOSPLIT8_ONE_LATTICE_3X3 = (0, 1, 4, 2, 3, 997, 999, 998, 1000)

# Two-lattice splits: (name, function, part-a term indices, part-a grid,
# part-b grid); part b is the remaining terms.
SPLIT_WITNESSES_3X3 = [
    ("uneven8_4_4", DECOMP_UNEVEN8, (0, 1, 2, 3),
     (997, 100, 1000, 998, 1, 3, 100, 996, 4),
     (3, 2, 0, 4, 4, 997, 999, 999, 999)),
    ("uneven8_6_2", DECOMP_UNEVEN8, (2, 3, 4, 5, 6, 7),
     (999, 2, 3, 0, 999, 1000, 997, 4, 1),
     (1, 100, 100, 996, 998, 1, 100, 997, 1000)),
    ("nosplit8_7_1", DECOMP_NOSPLIT8, (0, 2, 3, 4, 5, 6, 7),
     NOSPLIT8_ONE_LATTICE_3X3,
     (2, 100, 100, 4, 997, 100, 100, 999, 100)),
]
