"""End-to-end pipelines: structured sources fed through the matching
extractors, with distances measured by exact enumeration."""

import math

from addext import analysis as an
from addext import extractors as ex
from addext import suites
from addext.sources import (AffineSpec, ApSpec, BohrSpec, GapSpec, Group,
                            RandomSpec, build_source)


def test_gap_source_through_subgroup_encoding():
    p = 499
    grp = Group.zp(p)
    X = build_source(GapSpec(11, (1, 20), 16), grp)  # proper by construction
    assert X.notes["proper"]
    cfg = ex.build_zp_extractor(p, 1)
    dist = an.extractor_distribution(ex.extract_many(cfg, X.sorted_elements), 2)
    d = an.distance_to_uniform(dist)
    assert d < 0.15, d  # 256 points; bias stays far from degenerate


def test_bohr_source_through_subgroup_encoding():
    p = 499
    X = build_source(BohrSpec((1, 7), 0.3), Group.zp(p))
    assert len(X) >= 0.09 * p  # rho^2 p lower bound with headroom
    cfg = ex.build_zp_extractor(p, 2)
    dist = an.extractor_distribution(ex.extract_many(cfg, X.sorted_elements), 4)
    assert an.distance_to_uniform(dist) < 0.25


def test_affine_source_through_crt_pipeline():
    # the Z_p^n pipeline applied to an affine source (no list-decodability
    # side conditions are needed for the run itself)
    p, n = 11, 3
    grp = Group.zp_vec(p, n)
    X = build_source(AffineSpec((1, 2, 3), ((1, 0, 5), (0, 1, 7))), grp)
    assert len(X) == p**2
    cfg = ex.build_zpn_extractor(p, n, 1)
    vals = [ex.zpn_encode(x, cfg) for x in X.sorted_elements]
    assert len(set(vals)) == len(X)  # encoding stays injective on the source
    assert all(math.gcd(v, cfg.q) == 1 for v in vals)
    dist = an.extractor_distribution(ex.extract_many(cfg, X.sorted_elements), 2)
    assert an.distance_to_uniform(dist) < 0.1


def test_ap_source_in_vector_group_through_block_polynomial():
    p, n = 13, 3
    grp = Group.zp_vec(p, n)
    X = build_source(ApSpec((1, 2, 3), (2, 5, 7), 13), grp)
    cfg = ex.build_ap_extractor(p, n, 1)
    dist = an.extractor_distribution(ex.extract_many(cfg, X.sorted_elements), 2)
    d = an.distance_to_uniform(dist)
    bound = 16 * math.log2(p) ** 2 * math.sqrt(n * p) * 2 ** 0.5 / 13
    assert d <= bound  # the stated error budget (loose at this scale)


def test_random_source_through_index_map():
    p = 499
    X = build_source(RandomSpec(200, 7), Group.zp(p))
    cfg = ex.build_pgc_extractor(p, 1)
    dist = an.extractor_distribution(ex.extract_many(cfg, X.sorted_elements), 2)
    assert an.distance_to_uniform(dist) < 0.2
    # companion probe: normalized double character sum over the source
    probe = an.paley_double_sum(p, X.sorted_elements, X.sorted_elements)
    assert probe < 0.2


def test_m0_distance_zero_convention():
    cfg = ex.ap_config_with_blocks(13, 3, 0, [3])
    grp = Group.zp_vec(13, 3)
    X = build_source(RandomSpec(50, 1), grp)
    dist = an.extractor_distribution(ex.extract_many(cfg, X.sorted_elements),
                                     ex.output_size(cfg))
    assert an.distance_to_uniform(dist) == 0.0


def test_sweep_affine_row_end_to_end():
    grid = [{"group": {"kind": "zp_vec", "p": 11, "n": 3},
             "source": {"variant": "affine", "base": [0, 0, 0],
                        "basis": [[1, 0, 0], [0, 1, 1]]},
             "extractor": {"build": "zpn", "m": 1}}]
    r = suites.suite_sweep(grid)
    assert r.ok and r.rows[0].size == 121
    assert r.rows[0].max_charsum is not None
