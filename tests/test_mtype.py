import functools
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rescode import (
    Pmf,
    TypedPmf,
    build_tunstall,
    kl_divergence,
    leaf_distribution,
    mtype,
    product_codebook,
    quantize,
)
from references import brute_force_quantize, exact_exchange_ok, heap_quantize


def random_target(rng, max_support=5):
    k = int(rng.integers(2, max_support + 1))
    return rng.dirichlet(np.ones(k))


def feasible_exchange_improves(t: TypedPmf, q) -> bool:
    """True if moving one unit, staying under the contract cap, lowers KL."""
    m = t.denominator
    counts = t.counts
    base = kl_divergence(t, q)
    cap = np.floor(m * np.asarray(q)) + 1
    for a in range(len(counts)):
        if counts[a] == 0:
            continue
        for b in range(len(counts)):
            if a == b or q[b] == 0 or counts[b] + 1 > cap[b]:
                continue
            moved = counts.copy()
            moved[a] -= 1
            moved[b] += 1
            if kl_divergence(TypedPmf(m, moved), q) < base - 1e-12:
                return True
    return False


def halvings(picks):
    """A dyadic distribution: starting from [1], halve entry i % len and insert the other half after it."""
    q = [1.0]
    for i in picks:
        i %= len(q)
        q[i] /= 2
        q.insert(i + 1, q[i])
    return q


# Supports of 1-40 with zeros, one dominant atom plus tiny ones (the cap
# binds), repeated values (exact cost ties) and exactly dyadic targets.
TARGETS = st.one_of(
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=40).filter(any),
    st.lists(st.floats(1e-9, 1e-3), min_size=1, max_size=39).map(lambda tiny: [1.0] + tiny),
    st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=40).filter(any),
    st.lists(st.integers(0, 39), max_size=39).map(halvings),
).map(lambda w: np.asarray(w) / np.sum(w))


class TestQuantize:
    def test_running_example(self):
        t = quantize([0.64, 0.16, 0.2], 8)
        assert list(t.counts) == [5, 1, 2]
        assert kl_divergence(t, [0.64, 0.16, 0.2]) == pytest.approx(0.014583, abs=1e-5)

    def test_uniform_exact(self):
        t = quantize([0.25] * 4, 8)
        assert list(t.counts) == [2, 2, 2, 2]
        assert kl_divergence(t, [0.25] * 4) == 0.0

    def test_two_point_mode_collapse(self):
        t = quantize([0.9, 0.1], 2)
        assert list(t.counts) == [2, 0]
        assert kl_divergence(t, [0.9, 0.1]) == pytest.approx(math.log2(1 / 0.9), abs=1e-12)

    def test_zero_stays_zero(self):
        t = quantize([0.5, 0.0, 0.5], 16)
        assert t.counts[1] == 0

    @pytest.mark.parametrize("probs", [[0.5, -0.1, 0.6], [0.5, math.nan, 0.5], [0.0, 0.0], [0.5, 0.6]],
                             ids=["negative", "nan", "all-zero", "sum-1.1"])
    def test_rejects_what_pmf_rejects(self, probs):
        with pytest.raises(ValueError) as pmf_error:
            Pmf(probs)
        for fn in (quantize, brute_force_quantize):
            with pytest.raises(ValueError) as error:
                fn(probs, 8)
            assert str(error.value) == str(pmf_error.value)

    def test_errors(self):
        with pytest.raises(ValueError):
            quantize([0.5, 0.5], 0)
        with pytest.raises(ValueError, match=r"\[1, 2\^62\]"):
            quantize([0.5, 0.5], (1 << 62) + 1)
        with pytest.raises(ValueError):
            quantize([0.0, 0.0], 4)
        # the caps floor(M q) + 1 hold 2^40 - 109 units, short of M = 2^40
        with pytest.raises(ValueError, match="too far from 1"):
            quantize([1 - 1e-10], 1 << 40)

    def test_subnormal_atoms_take_the_units_the_caps_leave(self):
        # sum(q) is 1e-9 short, so the large atom's cap leaves 1099 units to 1200 distinct values of M q near
        # 1e-298: the bisection climbs to costs near 686, where exp(lam - 1 + ln(M q)) overflows without a clamp
        q, m = np.concatenate(([1 - 1e-9], np.linspace(1e-310, 2e-310, 1200))), 1 << 40
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = quantize(q, m).counts
        assert counts[1:].tolist() == [0] * 101 + [1] * 1099
        assert exact_exchange_ok(q, m, counts)

    def test_bound_enforced_on_lopsided_target(self):
        # the unconstrained KL optimum loads 16/16 on the first atom here,
        # which breaks the c/M <= q + 1/M contract; the allocator must not
        q = np.array([0.93, 0.0175, 0.0175, 0.0175, 0.0175])
        t = quantize(q, 16)
        assert np.all(t.counts / 16 <= q + 1 / 16 + 1e-15)
        unconstrained = brute_force_quantize(q, 16)
        assert np.any(unconstrained.counts / 16 > q + 1 / 16)
        assert kl_divergence(t, q) >= kl_divergence(unconstrained, q)
        assert not feasible_exchange_improves(t, q)


class TestBruteForce:
    def test_matches_running_example(self):
        t = brute_force_quantize([0.64, 0.16, 0.2], 8)
        assert list(t.counts) == [5, 1, 2]

    def test_single_unit_goes_to_mode(self):
        assert list(brute_force_quantize([1 / 3, 1 / 3, 1 / 3], 1).counts) == [1, 0, 0]
        assert list(brute_force_quantize([0.2, 0.5, 0.3], 1).counts) == [0, 1, 0]

    def test_symmetric_tie_prefers_low_index(self):
        assert list(brute_force_quantize([0.5, 0.5], 3).counts) == [2, 1]

    def test_instance_too_large(self):
        with pytest.raises(ValueError):
            brute_force_quantize(np.ones(9) / 9, 4)
        with pytest.raises(ValueError):
            brute_force_quantize(np.ones(8) / 8, 4096)


@functools.lru_cache(maxsize=None)
def heap_target(name):
    """(q, M, the heap's counts) for the sweep's b2b points at m = 12 and 18, its f2v point at m = 18, or a wide q."""
    if name == "b2b-n9-m12":
        q, m = leaf_distribution(Pmf([0.211, 0.789]), product_codebook(2, 9)).leaf_probs, 1 << 12
    elif name == "wide-m16":  # 6000 distinct values: a bracket of about 3 levels per value, so the bisection runs
        q, m = np.random.default_rng(5).dirichlet(np.ones(6000)), 1 << 16
    elif name == "f2v-2^16-m18":
        q, m = build_tunstall(Pmf([0.211, 0.789]), 1 << 16).leaf_probs, 1 << 18
    else:
        q, m = leaf_distribution(Pmf([0.211, 0.789]), product_codebook(2, 16)).leaf_probs, 1 << 18
    return q, m, heap_quantize(q, m).counts


@st.composite
def start_branches(draw):
    """(q, M <= 2^16) that reach each branch of quantize's start, with sum(q) up to a few ulps below 1.

    At least M / 1.5 atoms (t <= 0, so k_lo is 0), thousands of distinct values (a bracket above 2^14 levels,
    so the bisection runs), atoms with M q < 1 beside a few large ones, and hundreds of atoms on one value.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["crowded", "wide", "tiny", "shared"]))
    if kind == "crowded":
        k = draw(st.integers(2, 400))
        q, m = rng.dirichlet(np.ones(k)), draw(st.integers(1, 3 * k // 2))
    elif kind == "wide":
        q, m = rng.dirichlet(np.ones(draw(st.integers(6000, 7000)))), draw(st.integers(1 << 14, 1 << 16))
    elif kind == "tiny":
        m = draw(st.integers(2, 1 << 16))
        q = np.concatenate((rng.dirichlet(np.ones(draw(st.integers(1, 4)))), rng.uniform(0, 1 / m, 200)))
    else:
        w, mult = rng.dirichlet(np.ones(draw(st.integers(1, 6)))), draw(st.integers(65, 2000))
        q, m = np.concatenate((np.repeat(w[0] / mult, mult), w[1:])), draw(st.integers(1, 1 << 16))
    q = rng.permutation(q / q.sum())
    q[np.argmax(q)] -= draw(st.integers(0, 8)) * np.spacing(q.max())  # sum(q) a few ulps below 1
    return q, m


class TestAgainstHeapOracle:
    @settings(max_examples=150)
    @given(TARGETS, st.integers(1, 1 << 12))
    def test_same_counts(self, q, m):
        assert np.array_equal(quantize(q, m).counts, heap_quantize(q, m).counts)

    # the last one is the sweep's m = 18 f2v point
    @pytest.mark.parametrize(
        "p,size,m", [((0.211, 0.789), 3072, 12), ((0.1, 0.2, 0.7), 16385, 16), ((0.211, 0.789), 1 << 16, 18)]
    )
    def test_same_counts_on_tunstall_leaves(self, p, size, m):
        leaf_probs = build_tunstall(Pmf(p), size).leaf_probs
        assert np.array_equal(quantize(leaf_probs, 1 << m).counts, heap_quantize(leaf_probs, 1 << m).counts)

    def test_same_counts_on_product_leaves(self):
        # the sweep's m = 18 b2b point: 2^16 leaves with 17 distinct probabilities in exact arithmetic
        leaf_probs, m, expected = heap_target("b2b-n16-m18")
        assert np.array_equal(quantize(leaf_probs, m).counts, expected)

    @settings(max_examples=60)
    @given(start_branches())
    def test_same_counts_on_every_start_branch(self, target):
        q, m = target
        assert np.array_equal(quantize(q, m).counts, heap_quantize(q, m).counts)


class TestTiesAcrossValues:
    """Unit 1 of an atom with mass q and unit 2 of one with 4q both cost -ln(M q): one group spans two values.

    With more than 64 atoms to each value, the finish cuts such a group in (atom, level) order.
    """

    @pytest.mark.parametrize("exps,mults,m", [
        ((7, 9), (65, 252), 219), ((7, 9), (100, 112), 256), ((8, 10), (65, 764), 269), ((8, 10), (80, 704), 384),
    ])
    def test_same_counts(self, exps, mults, m):
        q = np.random.default_rng(m).permutation(np.repeat(np.exp2(np.negative(exps)), mults))
        assert q.sum() == 1.0
        assert np.array_equal(quantize(q, m).counts, heap_quantize(q, m).counts)

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(5, 10), st.integers(65, 300)), min_size=1, max_size=3),
           st.integers(128, 1024), st.randoms(use_true_random=False))
    def test_same_counts_on_dyadic_values(self, classes, m, rnd):
        # each value 2^-e on its multiplicity's atoms, and 2^-11 on the atoms that fill the sum to one;
        # at these M about one draw in eight cuts a group that spans two values
        q = [2.0**-e for e, mult in classes for _ in range(mult)]
        q += [2.0**-11] * max(0, (2048 - round(sum(q) * 2048)))
        rnd.shuffle(q)
        q = np.asarray(q) / sum(q)
        assert np.array_equal(quantize(q, m).counts, heap_quantize(q, m).counts)


def digest_targets(count=3000, m_min=1, bits=(1, 53)):
    """Seeded (q, M): Dirichlet draws, values on up to 2000 atoms each, zeros, one dominant atom.

    M is drawn from [m_min, 2^e] for e drawn from [bits[0], bits[1]); by default M is in [1, 2^52].
    """
    rng = np.random.default_rng(1306)
    for i in range(count):
        k = int(rng.integers(1, 13))
        if i % 4 == 0:
            q = rng.dirichlet(np.ones(k))
        elif i % 4 == 1:
            mult = rng.integers(1, 2001, k)
            q = rng.permutation(np.repeat(rng.dirichlet(np.ones(k)) / mult, mult))
        elif i % 4 == 2:
            q = rng.permutation(np.concatenate((rng.dirichlet(np.ones(k)), np.zeros(k))))
        else:
            q = np.concatenate(([1.0], rng.uniform(1e-12, 1e-4, k)))
        yield q / q.sum(), int(rng.integers(m_min, (1 << int(rng.integers(*bits))) + 1))


def test_counts_digest():
    """The counts of 3000 seeded instances hash as those of the per-atom heap finish this quantizer replaced."""
    digest = hashlib.sha256()
    for q, m in digest_targets():
        digest.update(quantize(q, m).counts.tobytes())
    assert digest.hexdigest() == "ea196ab8fd30c60c83e3be864959090cfbf73eb87a8d539aacb733aab4b71629"


def test_counts_digest_above_2_52():
    """The counts of the seeded instances with M in (2^52, 2^62] whose caps cover M, where numpy's counts stand."""
    digest, hashed = hashlib.sha256(), 0
    for q, m in digest_targets(400, (1 << 52) + 1, (53, 63)):
        mq = m * q
        if int((np.floor(mq[mq > 0]).astype(np.int64) + 1).sum()) < m:  # quantize rejects these today
            continue
        hashed += 1
        digest.update(quantize(q, m).counts.tobytes())
    assert hashed >= 300  # 338 of the 400
    assert digest.hexdigest() == "4ff846fa18dfe33bcad3afd8c42dde607524f18d398814039e1515b34ecd78f1"


def test_caps_hold_above_2_53():
    """Past M q = 2^53 the count is clipped to floor(M q) + 1 in integers; a float clip rounded it past the cap."""
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(400):
        q = rng.dirichlet(np.ones(int(rng.integers(2, 8))))
        m = int(rng.integers(1 << 53, (1 << 62) + 1))
        try:
            t = quantize(q, m)
        except ValueError as exc:  # M q rounds below M by more than the caps' slack
            assert "too far from 1" in str(exc)
            continue
        checked += 1
        assert int(t.counts.sum()) == m
        assert np.all(t.counts <= np.floor(m * q).astype(np.int64) + 1)
    assert checked >= 150


class RoughNumpy:
    """numpy, with log and log1p `ulps` ulps low and exp scaled by `scale`."""

    def __init__(self, ulps=0, scale=1.0):
        self.ulps, self.scale = ulps, scale

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x):
        y = np.log(x)
        return y - self.ulps * np.spacing(np.abs(y))

    def log1p(self, x):
        y = np.log1p(x)
        return y - self.ulps * np.spacing(np.abs(y))

    def exp(self, x):
        return np.exp(x) * self.scale


ROUGH = {"logs-1ulp-low": {"ulps": 1}, "logs-3ulps-low": {"ulps": 3}, "exp-high": {"scale": 1.001},
         "exp-low": {"scale": 0.999}}
ROUGH_CASES = [(name, rough) for name in ("b2b-n9-m12", "b2b-n16-m18", "f2v-2^16-m18", "wide-m16") for rough in ROUGH]


class TestExactBoundaryCheck:
    """Counts stay the heap's when numpy's logarithms round differently or the closed form is off."""

    # The sweep's b2b point at m = 12 has tie classes whose unit costs sit next to the cut: logs a
    # few ulps low, as another build's vector paths may give them, would hand out units there that
    # the greedy leaves.  Its m = 18 points key 4784 (product n = 16) and 718 (Tunstall 2^16) levels
    # by numpy alone.  The wide target is bisected, and there a scaled exp moves below's count by one.
    @pytest.mark.parametrize("name, rough", ROUGH_CASES,
                             ids=[r if n == "b2b-n9-m12" else f"{n}-{r}" for n, r in ROUGH_CASES])
    def test_same_counts_with_rough_numpy(self, monkeypatch, name, rough):
        q, m, expected = heap_target(name)
        monkeypatch.setattr(mtype, "np", RoughNumpy(**ROUGH[rough]))
        assert np.array_equal(quantize(q, m).counts, expected)


def stable_costs(c, mq):
    """Marginal cost of unit c+1 on each atom, ln(c+1) + c*log1p(1/c) - ln(M q_a), in numpy."""
    c = c.astype(float)
    return np.log(c + 1) + c * np.log1p(1 / np.maximum(c, 1)) - np.log(mq)


def cost_ulps(q, m):
    """A few ulps of the unit costs' size: how far apart two units' float costs can order them wrongly."""
    mq = m * np.asarray(q)
    return 4 * np.finfo(float).eps * (1 + np.abs(np.log(mq[mq > 0])).max() + math.log(m + 1))


@functools.lru_cache(maxsize=None)
def certificate_target(name):
    if name == "3-atom":
        return np.array([0.64, 0.16, 0.2])
    return build_tunstall(Pmf([0.211, 0.789]), {"tunstall-2^12": 1 << 12, "tunstall-2^16": 1 << 16}[name]).leaf_probs


class TestOptimalityCertificate:
    """At sizes the heap cannot reach, the counts are checked against the optimality conditions."""

    @pytest.mark.parametrize("m", [24, 32, 40, 62])
    @pytest.mark.parametrize("name", ["3-atom", "tunstall-2^12", "tunstall-2^16"])
    def test_exchange_condition(self, name, m):
        q = np.concatenate(([0.0], certificate_target(name)))  # one zero-probability atom up front
        t = quantize(q, 1 << m)
        c, mq = t.counts[1:], (1 << m) * q[1:]
        cap = np.floor(mq).astype(np.int64) + 1
        assert int(t.counts.sum()) == 1 << m
        assert t.counts[0] == 0
        assert np.all(c <= cap)
        # No unit can move to a cheaper place: every handed-out unit costs at most what any
        # atom's next unit would, within a few ulps of the costs' size.
        last = stable_costs(c[c > 0] - 1, mq[c > 0])
        nxt = stable_costs(c[c < cap], mq[c < cap])
        assert last.max() <= nxt.min() + cost_ulps(q, 1 << m)


def exact_regime_edge(q, scale):
    """The M at which the largest cap floor(M q) + 1 times quantize's tol is about 0.1 * scale: 0.1 is the edge
    past which the quantizer lets numpy's counts stand."""
    m = 1 << 40
    for _ in range(4):  # tol moves with ln M: a fixed point is reached in a few steps
        mq = m * q[q > 0]
        tol = 8 * np.finfo(float).eps * (2 + np.abs(np.log(mq)).max() + math.log(m + 1))
        m = int(0.1 * scale / (tol * q.max()))
    return m


def closed_form_y(q, m, a):
    """x t + 1/2 in exact arithmetic for atom a, as quantize's closed form takes it: x = M q_a and
    t = (M - 1.5 atoms) / sum(x), over the float products M q."""
    x = [Fraction(v) for v in (m * np.asarray(q)).tolist() if v > 0]
    t = (m - Fraction(3, 2) * len(x)) / sum(x)
    return Fraction(float(m * q[a])) * t + Fraction(1, 2), t


@st.composite
def closed_form_edges(draw):
    """(q, M) on the edges of quantize's closed-form start, with one value on up to 300 atoms.

    "round": that value's x t + 1/2 within 1e-6 of an integer, where ceil(x t + 1/2) meets the rounding of t.
    The value is set first, then a last atom of M q between 1 and 2 moves sum(x), and so t, in fine steps.
    "edge": the largest cap times tol drawn either side of 0.1, where the closed form gives way to the bisection.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mult, others = draw(st.integers(1, 300)), rng.dirichlet(np.ones(draw(st.integers(1, 4))))
    if draw(st.sampled_from(["round", "edge"])) == "edge":
        q = np.concatenate((np.repeat(others[0] / mult, mult), others[1:]))
        q /= q.sum()
        return q, exact_regime_edge(q, draw(st.floats(0.8, 1.2)))
    bits = draw(st.integers(max(10, (8 * mult).bit_length()), 44))
    m = draw(st.integers(1 << bits - 1, 1 << bits))
    free = m - 1.5 * (mult + others.size + 1)
    level = max(1, int(draw(st.floats(0.1, 0.9)) * free / mult))
    goal = level + Fraction(draw(st.floats(-9e-7, 9e-7)))
    q_a, q_c = (level - 0.5) / free, 1.5 / m
    for _ in range(3):  # x_a to within its ulp
        q = np.concatenate((np.repeat(q_a, mult), others * (1 - mult * q_a - q_c), [q_c]))
        y, t = closed_form_y(q, m, 0)
        q_a += float(goal - y) / float(t) / m
    for _ in range(3):  # the rest through the last atom: y falls by about q_a per unit of x_c
        y, t = closed_form_y(q, m, 0)
        q[-1] += float(y - goal) / (q_a * float(t)) / m
    assume(abs(closed_form_y(q, m, 0)[0] - level) <= 1e-6)
    return rng.permutation(q), m


class TestExactOptimality:
    """Counts checked in 50-digit arithmetic where the heap's float costs cancel, and against the heap below that."""

    def test_counts_past_the_exact_regime(self):
        # Past counts of about 1e12, math.log keys round by about 1e-14, as much as consecutive units of one atom
        # differ (1/c is 7e-15 on atom 2).  These counts are exactly optimal; moving one unit from atom 2 to atom 1
        # is not.
        q = [0.5681799556996339, 0.3592031226908148, 0.0568431771489486, 0.015773744460602757]
        m = 2523073516618639
        counts = quantize(q, m).counts
        assert counts.tolist() == [1433559798899298, 906295885947910, 143419514864974, 39798316906457]
        assert exact_exchange_ok(q, m, counts)
        assert not exact_exchange_ok(q, m, counts + [0, 1, -1, 0])

    @settings(max_examples=60)
    @given(closed_form_edges())
    def test_counts_on_the_closed_form_edges(self, target):
        q, m = target
        counts = quantize(q, m).counts
        if m <= 1 << 16:
            assert np.array_equal(counts, heap_quantize(q, m).counts)
        else:  # float costs can order two atoms' units wrongly only where they lie within a few ulps
            assert exact_exchange_ok(q, m, counts, cost_ulps(q, m))


class TestOptimality:
    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            q = random_target(rng)
            for m in (4, 8, 16, 32):
                klg = kl_divergence(quantize(q, m), q)
                klb = kl_divergence(brute_force_quantize(q, m), q)
                assert abs(klg - klb) <= 1e-12

    def test_quant_bound_random(self):
        rng = np.random.default_rng(29)
        for _ in range(120):
            q = random_target(rng)
            m = int(rng.integers(1, 64))
            t = quantize(q, m)
            assert np.all(t.counts / m <= q + 1.0 / m + 1e-15)

    def test_one_exchange_optimal_random(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            q = random_target(rng)
            m = int(rng.integers(1, 48))
            assert not feasible_exchange_improves(quantize(q, m), q)

    def test_divergence_bound_random(self):
        rng = np.random.default_rng(37)
        for _ in range(120):
            q = random_target(rng)
            m = int(rng.integers(1, 96))
            mu = q[q > 0].min()
            assert kl_divergence(quantize(q, m), q) <= 1.0 / (mu * m) + 1e-12

    @settings(max_examples=150)
    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.lists(st.floats(0.02, 1.0), min_size=k, max_size=k)
        ),
        st.integers(1, 24),
    )
    def test_quant_bound_property(self, weights, m):
        q = np.asarray(weights) / np.sum(weights)
        t = quantize(q, m)
        assert np.all(t.counts / m <= q + 1.0 / m + 1e-15)
