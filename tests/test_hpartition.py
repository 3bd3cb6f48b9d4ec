import hashlib
import random

import pytest

from spanembed.density import find_clique
from spanembed.generators import (
    BandwidthedH,
    cycle_power_H,
    gnp,
    path_power_H,
    random_window_H,
    tiling_H,
)
from spanembed.graphs import DenseGraph, StageFailure, identity_labelling, make_named
from spanembed.hpartition import (
    Assignment,
    balanced_2r_colouring,
    basic_assignment,
    build_framework,
    check_balanced_colouring,
    check_basic_assignment,
    check_framework,
    find_2_independent,
    interval_width,
    special_assignment,
)


def near_uniform_targets(n, ell, r):
    cells = [(i, j) for i in range(1, ell + 1) for j in range(1, 2 * r + 1)]
    base = n // len(cells)
    targets = {c: base for c in cells}
    extra = n - base * len(cells)
    # spread the remainder one per block so within-block sizes stay within 1
    k = 0
    while extra > 0:
        for i in range(1, ell + 1):
            if extra == 0:
                break
            targets[(i, (k % (2 * r)) + 1)] += 1
            extra -= 1
        k += 1
    return targets


# -- balanced colouring ------------------------------------------------------


def test_colouring_edgeless_trivial():
    H = DenseGraph.empty(200)
    Hb = BandwidthedH(H, identity_labelling(200), tuple(1 for _ in range(200)), 0.01)
    col = balanced_2r_colouring(Hb)
    assert check_balanced_colouring(Hb, col) == ""


def test_colouring_long_cycle_r2():
    Hb = cycle_power_H(1, 2000, beta=0.005)
    col = balanced_2r_colouring(Hb)
    assert check_balanced_colouring(Hb, col) == ""
    assert set(col) <= {1, 2, 3, 4}


def test_colouring_cycle_power_r3():
    Hb = cycle_power_H(2, 3000, beta=0.002)
    col = balanced_2r_colouring(Hb)
    assert check_balanced_colouring(Hb, col) == ""
    assert set(col) <= set(range(1, 7))


def test_colouring_random_window_graphs():
    rng = random.Random(0)
    for seed in range(6):
        n = rng.randint(400, 900)
        Hb = random_window_H(n, window=max(4, n // 100), max_degree=3,
                             num_colours=3, seed=seed)
        col = balanced_2r_colouring(Hb)
        assert check_balanced_colouring(Hb, col) == ""


@pytest.mark.parametrize(
    "guest, r, expected",
    [
        (lambda: cycle_power_H(1, 480), None, "1a156b286f544cb6"),
        (lambda: cycle_power_H(1, 2000, beta=0.005), None, "1057b38b9bc5f013"),
        (lambda: cycle_power_H(1, 480), 3, "19896f015b82e297"),
        (lambda: path_power_H(2, 300), None, "92423d12089e0c61"),
        (lambda: cycle_power_H(2, 576), None, "7c3e5c18766bfcfb"),
        (lambda: tiling_H(3, 160), None, "8ecfdcfd641f9653"),
        (lambda: random_window_H(600, 6, 3, 3, seed=1), None, "b1492bf0cff8727a"),
    ],
    ids=["C1-480", "C1-2000", "C1-480-r3", "P2-300", "C2-576", "K3tiling-480", "window-600"],
)
def test_colouring_output_pinned(guest, r, expected):
    # the exact colouring, not only its three properties
    col = balanced_2r_colouring(guest(), r)
    assert hashlib.sha256(repr(col).encode()).hexdigest()[:16] == expected


def test_colouring_short_guest_exact():
    # one interval keeps chi; two or three intervals alternate the halves
    assert balanced_2r_colouring(path_power_H(1, 10, beta=1.0)) == (1, 2) * 5
    assert balanced_2r_colouring(path_power_H(1, 12, beta=0.5)) == (1, 2) * 3 + (3, 4) * 3
    assert balanced_2r_colouring(path_power_H(1, 12, beta=0.3)) == (1, 2, 1, 2, 3, 4, 3, 4, 1, 2, 1, 2)


def test_colouring_prefix_balance_is_tight():
    # balance must hold on every prefix, not only the final counts
    Hb = cycle_power_H(1, 1200, beta=1 / 100)
    col = balanced_2r_colouring(Hb)
    n, r = 1200, 2
    W = interval_width(Hb.beta, n)
    counts = [0] * (2 * r + 1)
    for t, pos in enumerate(range(0, n, W), start=1):
        for x in Hb.order.order[pos : pos + W]:
            counts[col[x]] += 1
        assert abs(counts[1] - counts[2]) <= 2 * Hb.beta * n
        assert abs(counts[3] - counts[4]) <= 2 * Hb.beta * n


@pytest.mark.parametrize(
    "colouring, message",
    [
        ((1, 3) * 5, "prefix 5: classes 1,2 differ by 3 > 2"),
        ((1, 3, 2, 3) * 2 + (1, 3), "prefix 6: classes 3,4 differ by 3 > 2"),
        ((2, 4) * 5, "prefix 5: classes 1,2 differ by 3 > 2"),
    ],
    ids=["first-half", "second-half", "higher-class-ahead"],
)
def test_colouring_check_names_the_first_unbalanced_pair(colouring, message):
    # width-1 intervals and r = 2: the bound is 2, and the first prefix on
    # which a half drifts by 3 is named with its first pair in (j, j2) order
    Hb = BandwidthedH(DenseGraph.empty(10), identity_labelling(10), (1,) * 10, 0.1)
    assert check_balanced_colouring(Hb, colouring, 2) == message


def _reference_check_balanced_colouring(Hb, colouring, r=None):
    """The colouring checker as a loop over ``H.edges()``, the intervals and
    every prefix's classes: ``check_balanced_colouring`` must give the same
    verdict and message."""
    H, order, chi = Hb.H, Hb.order.order, Hb.colouring
    n = H.n
    if r is None:
        r = max(chi)
    W = interval_width(Hb.beta, n)
    A = [list(order[i : i + W]) for i in range(0, len(order), W)]
    for u, v in H.edges():
        if colouring[u] == colouring[v]:
            return f"not proper at edge ({u},{v})"
    for t, interval in enumerate(A, start=1):
        lo, hi = (1, r) if t % 2 == 1 else (r + 1, 2 * r)
        for x in interval:
            if not lo <= colouring[x] <= hi:
                return f"interval {t} colour {colouring[x]} outside its half"
    counts = [0] * (2 * r + 1)
    bound = 2 * W
    for t, interval in enumerate(A, start=1):
        for x in interval:
            counts[colouring[x]] += 1
        for lo, hi in ((1, r), (r + 1, 2 * r)):
            half = counts[lo : hi + 1]
            if max(half) - min(half) <= bound:
                continue
            for j in range(lo, hi + 1):
                for j2 in range(lo, hi + 1):
                    if abs(counts[j] - counts[j2]) > bound:
                        return (
                            f"prefix {t}: classes {j},{j2} differ by "
                            f"{abs(counts[j] - counts[j2])} > {bound}"
                        )
    return ""


def _corrupted_colourings(Hb, colouring, r, rng):
    """``colouring`` and corruptions of it: single vertices recoloured in
    and out of 1..2r, two vertices swapped, and a run of the bandwidth order
    most of whose vertices take the first colour of their half, or move to
    the other half."""
    n, order = Hb.n, Hb.order.order
    out = [colouring]
    for _ in range(3):
        col = list(colouring)
        for x in rng.sample(range(n), rng.randint(1, 3)):
            col[x] = rng.randint(0, 2 * r + 1)
        out.append(tuple(col))
    col = list(colouring)
    x, y = rng.sample(range(n), 2)
    col[x], col[y] = col[y], col[x]
    out.append(tuple(col))
    for paint in (lambda c: 1 if c <= r else r + 1, lambda c: c + r if c <= r else c - r):
        col = list(colouring)
        start = rng.randrange(n)
        for x in order[start : start + rng.randint(1, n // 2)]:
            if rng.random() < 0.8:
                col[x] = paint(colouring[x])
        out.append(tuple(col))
    return out


def test_colouring_check_matches_the_loop_reference():
    # the generator guests at several interval widths, their own balanced
    # colourings and corruptions of them; an edgeless guest with narrower
    # intervals lets a painted run unbalance a prefix without breaking
    # properness
    rng = random.Random(0)
    guests = [
        lambda b: cycle_power_H(1, 120, beta=b),
        lambda b: cycle_power_H(2, 150, beta=b),
        lambda b: path_power_H(2, 90, beta=b),
        lambda b: tiling_H(3, 40, beta=b),
        lambda b: random_window_H(160, 4, 3, 3, seed=rng.randrange(100)),
        lambda b: BandwidthedH(
            DenseGraph.empty(99), identity_labelling(99), (1, 2, 3) * 33, b / 3
        ),
    ]
    verdicts = {}
    for guest in guests:
        for beta in (0.03, 0.05, 0.1, 0.25, 1.0):
            Hb = guest(beta)
            for r in (None, max(Hb.colouring) + 1):
                colouring = balanced_2r_colouring(Hb, r)
                rr = max(Hb.colouring) if r is None else r
                for _ in range(8):
                    for col in _corrupted_colourings(Hb, colouring, rr, rng):
                        want = _reference_check_balanced_colouring(Hb, col, r)
                        assert check_balanced_colouring(Hb, col, r) == want, (Hb, col, r)
                        kind = want.split()[0] if want else "ok"
                        verdicts[kind] = verdicts.get(kind, 0) + 1
    assert set(verdicts) == {"ok", "not", "interval", "prefix"}, verdicts


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_colouring_check_matches_the_loop_reference_on_long_guests(r):
    # 1,200-vertex guests with 100 or 200 intervals, so that the array of
    # class gaps has 800 to 10,000 entries: their balanced colourings, a
    # planted imbalance in either half of a prefix (an edgeless guest keeps
    # it proper), a clash and a colour outside its half
    rng = random.Random(r)
    n = 1200
    chi = tuple(x % r + 1 for x in range(n))
    verdicts, halves = set(), set()
    for beta in (0.01, 0.005):
        W = interval_width(beta, n)
        for Hb in (
            tiling_H(r, n // r, beta=beta),
            BandwidthedH(DenseGraph.empty(n), identity_labelling(n), chi, beta),
        ):
            colouring = balanced_2r_colouring(Hb, r)
            cases = [colouring]
            for h in (0, 1):
                # every interval of half h from the t0-th on paints one class
                col = list(colouring)
                t0 = 2 * rng.randrange(20) + h
                paint = h * r + rng.randint(1, r)
                for t in range(t0, n // W, 2):
                    for x in Hb.order.order[t * W : (t + 1) * W]:
                        col[x] = paint
                cases.append(tuple(col))
            if Hb.H.edge_count():
                u, v = rng.choice(list(Hb.H.edges()))
                col = list(colouring)
                col[u] = col[v]
                cases.append(tuple(col))
            col = list(colouring)
            x = rng.randrange(n)
            col[x] += r if col[x] <= r else -r
            cases.append(tuple(col))
            for col in cases:
                want = _reference_check_balanced_colouring(Hb, col, r)
                assert check_balanced_colouring(Hb, col, r) == want, (Hb, want)
                verdicts.add(want.split()[0] if want else "ok")
                if want.startswith("prefix"):
                    halves.add(int(want.split()[3].split(",")[0]) > r)
    assert verdicts == {"ok", "not", "interval", "prefix"}
    assert halves == {False, True}


# -- basic assignment ---------------------------------------------------


def test_basic_assignment_edgeless():
    n = 800
    H = DenseGraph.empty(n)
    Hb = BandwidthedH(H, identity_labelling(n), tuple(1 for _ in range(n)), 0.01)
    targets = near_uniform_targets(n, 2, 2)
    asg = basic_assignment(Hb, targets)
    assert check_basic_assignment(Hb, asg, targets) == ""


def test_basic_assignment_cycle():
    n = 4000
    Hb = cycle_power_H(1, n, beta=0.004)
    targets = near_uniform_targets(n, 4, 2)
    asg = basic_assignment(Hb, targets)
    assert check_basic_assignment(Hb, asg, targets) == ""


def test_assignment_refuses_targets_that_cover_no_cell():
    Hb = cycle_power_H(1, 40, beta=0.1)
    with pytest.raises(StageFailure) as exc:
        basic_assignment(Hb, {})
    assert (exc.value.stage, exc.value.detail) == (
        "basic-assignment",
        "targets must cover [ell] x [2r] exactly",
    )
    targets = near_uniform_targets(40, 2, 2)
    asg = basic_assignment(Hb, targets)
    assert check_basic_assignment(Hb, asg, {}) == "targets must cover [ell] x [2r] exactly"


def _floor_refusal(block_1):
    """The floor refusal of basic_assignment when block 1 of a 4 x 4 grid of
    250-vertex cells takes the sizes ``block_1`` and block 4 the rest."""
    n = 4000
    Hb = cycle_power_H(1, n, beta=0.004)
    targets = near_uniform_targets(n, 4, 2)
    for j, size in enumerate(block_1, start=1):
        targets[(4, j)] += targets[(1, j)] - size
        targets[(1, j)] = size
    with pytest.raises(StageFailure) as exc:
        basic_assignment(Hb, targets)
    return exc.value.stage, exc.value.detail


def test_basic_assignment_rejects_small_targets():
    assert _floor_refusal((0, 250, 250, 250)) == (
        "floor",
        "target m(1, 1) = 0 below the floor 1",
    )


def test_basic_assignment_rejects_a_block_narrower_than_four_intervals():
    # beta*n = 16, so a block needs 64 vertices to hold its boundary buffers
    assert _floor_refusal((15, 15, 15, 15)) == (
        "floor",
        "block 1 width 60 below the floor 4*beta*n = 64",
    )


def test_basic_assignment_independent_checker_catches_corruption():
    n = 1000
    Hb = cycle_power_H(1, n, beta=0.01)
    targets = near_uniform_targets(n, 2, 2)
    asg = basic_assignment(Hb, targets)
    # corrupt one mapping: move a mid-block vertex to the far block
    f = list(asg.f)
    victim = Hb.order.order[n // 4]
    f[victim] = (2, f[victim][1])
    bad = Assignment(tuple(f), asg.B, asg.tallies)
    assert check_basic_assignment(Hb, bad, targets) != ""


@pytest.mark.parametrize("r_pow,r,beta_num", [(1, 2, 8), (2, 3, 6), (3, 4, 8)])
def test_basic_assignment_cycle_powers(r_pow, r, beta_num):
    n = 3000 - (3000 % (r_pow + 1))
    Hb = cycle_power_H(r_pow, n)
    beta = beta_num / n
    assert 2 * r_pow <= beta * n
    ell = 3
    targets = near_uniform_targets(n, ell, r)
    Hb2 = BandwidthedH(Hb.H, Hb.order, Hb.colouring, beta)
    asg = basic_assignment(Hb2, targets)
    assert check_basic_assignment(Hb2, asg, targets) == ""


def test_basic_assignment_accepts_its_own_output_at_a_fractional_beta_n():
    # beta*n = 2.16 slices H into width-3 intervals, and the 19 block
    # boundaries put 2*19*3 = 114 vertices into B: the checker must bound |B|
    # by 2*ell*W = 120, not by 2*ell*beta*n = 86.4
    Hb = cycle_power_H(1, 480, beta=0.0045)
    targets = {(a, b): 6 for a in range(1, 21) for b in range(1, 5)}
    asg = basic_assignment(Hb, targets)
    assert len(asg.B) == 114
    assert check_basic_assignment(Hb, asg, targets) == ""


def test_interval_width_reads_w_over_n_as_w():
    # 0.035 * 200 is 7.000000000000001 in floats, which must not round up to 8
    assert interval_width(random_window_H(200, 7, 3, 3).beta, 200) == 7
    assert all(interval_width(w / n, n) == w for n in range(1, 1001) for w in range(1, min(n, 40) + 1))
    assert interval_width(0.0045, 480) == 3


# -- 2-independent sets ----------------------------------------------------


def test_find_2_independent_edgeless():
    H = DenseGraph.empty(50)
    out = find_2_independent(H, tuple(range(50)), (0, 30), 10)
    assert out == list(range(10))


def test_find_2_independent_path():
    Hb = path_power_H(1, 100)
    out = find_2_independent(Hb.H, Hb.order.order, (20, 80), 5)
    assert len(out) == 5
    for i, x in enumerate(out):
        for y in out[i + 1 :]:
            assert abs(x - y) >= 3  # on a path, order distance = graph distance


def test_find_2_independent_infeasible_on_clique():
    H = DenseGraph.complete(10)
    with pytest.raises(StageFailure):
        find_2_independent(H, tuple(range(10)), (0, 10), 2)


# -- framework ----------------------------------------------------------


def test_framework_single_vertex_complete_reduced():
    R = DenseGraph.complete(20)
    b = (0, 1)
    reqs = {7: set(range(20))}
    F = build_framework(R, reqs, b, eta=0.2)
    assert F.K == 1
    assert F.t == (8 * F.K + 1) * 2
    assert F.sequence[-2:] == b
    assert check_framework(R, F, reqs, b, appearance_cap=100) == ""


def test_framework_empty_exceptional_set():
    R = DenseGraph.complete(20)
    b = (3, 4)
    F = build_framework(R, {}, b, eta=0.2)
    assert F.K == 0
    assert F.sequence == b


def test_framework_groups_share_blocks():
    R = DenseGraph.complete(24)
    b = (0, 1)
    reqs = {i: set(range(24)) for i in range(100, 105)}
    F = build_framework(R, reqs, b, eta=0.2)
    assert F.K == 1  # one block covers every candidate set
    assert set(v for vs in F.block_map.values() for v in vs) == set(reqs)


def test_framework_no_covering_clique():
    # candidate set induces an independent set: no K_4 inside
    R = gnp(30, 0.85, 3)
    rows = list(R.rows)
    for u in range(6):
        for v in range(6):
            if u != v:
                rows[u] &= ~(1 << v)
    R2 = DenseGraph(30, rows, check=False)
    b = find_clique(R2, 2, within=sum(1 << v for v in range(6, 30)))
    reqs = {50: set(range(6))}
    with pytest.raises(StageFailure) as exc:
        build_framework(R2, reqs, b, eta=0.1)
    assert exc.value.stage == "no-covering-clique"


def test_framework_multi_group_random_reduced():
    R = gnp(36, 0.9, 8)
    b = find_clique(R, 2)
    reqs = {100: set(range(0, 26)), 101: set(range(8, 36)), 102: set(range(3, 30))}
    F = build_framework(R, reqs, b, eta=0.1)
    assert check_framework(R, F, reqs, b, appearance_cap=max(4, R.n)) == ""


# -- special assignment ------------------------------------------------------


def make_special_instance(K_blocks=2, W_amb=4, b_width=None, seed=8):
    R = gnp(36, 0.9, seed)
    b = find_clique(R, 2)
    reqs = {}
    lows = [0, 8, 3]
    for k in range(K_blocks):
        reqs[100 + k] = set(range(lows[k % 3], lows[k % 3] + 26))
    F = build_framework(R, reqs, b, eta=0.1)
    if b_width is None:
        max_group = max(len(vs) for vs in F.block_map.values())
        b_width = 4 * W_amb + 2 * 4 * max_group + 1  # Delta(path)=2
    n_pref = 8 * F.K * b_width + W_amb
    Hb = path_power_H(1, n_pref, beta=W_amb / n_pref)
    return R, b, reqs, F, Hb, W_amb


def test_special_assignment_properties():
    R, b, reqs, F, Hb, W_amb = make_special_instance()
    out = special_assignment(Hb, F, R, reqs, W_amb)
    assert len(out.I) == len(reqs)
    mapped = {out.f[x][1] for x in out.I}
    assert mapped == set(reqs)
    # neighbours of I land in candidate sets (already verified internally);
    # spot-check the reported loads
    assert out.report["max_load"] >= 1


def test_special_assignment_empty_v0_needs_block():
    R = DenseGraph.complete(20)
    from spanembed.hpartition import FrameworkTrail

    F = FrameworkTrail(r=2, sequence=(0, 1), K=0, block_map={}, multiplicity={0: 1, 1: 1})
    Hb = path_power_H(1, 40, beta=0.1)
    with pytest.raises(StageFailure):
        special_assignment(Hb, F, R, {}, 4)


def test_special_assignment_interval_too_small():
    R, b, reqs, F, Hb, W_amb = make_special_instance(b_width=8)
    with pytest.raises(StageFailure) as exc:
        special_assignment(Hb, F, R, reqs, W_amb)
    assert exc.value.stage == "interval-too-small"


def test_special_assignment_disjoint_neighbourhoods():
    R, b, reqs, F, Hb, W_amb = make_special_instance(K_blocks=3)
    out = special_assignment(Hb, F, R, reqs, W_amb)
    seen = set()
    for v, wv in out.W_v.items():
        assert not seen & set(wv)  # 2-independence makes the W_v disjoint
        seen |= set(wv)
