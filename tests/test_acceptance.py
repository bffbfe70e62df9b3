"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Each test computes its criterion as a boolean, prints a single line, and
then asserts, so the printed verdict always matches the pytest outcome.
Run with `pytest -s tests/test_acceptance.py` to see the lines inline.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from synthmia import attack, dp, evaluation, harness, marginals, recovery, sdg
from synthmia.data import Dataset, Domain, SplitSpec, generate_households, snake_split_indices
from synthmia.dp import DpParams

INF = math.inf


def verdict(number, name, ok, detail=""):
    line = f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def make_ds(cards, rows):
    dom = Domain([f"a{i}" for i in range(len(cards))], list(cards))
    return Dataset(dom, np.array(rows, dtype=np.int64))


def random_ds(rng, d, max_card, n):
    cards = rng.integers(2, max_card + 1, size=d)
    return make_ds(cards, rng.integers(0, cards, size=(n, d)))


def tree_tables(ds, structure):
    """Floored node and edge tables of ds, made consistent over the tree."""
    node_probs = {i: marginals.marginal(ds, (i,)) for i in range(len(ds.domain))}
    edge_probs = {e: marginals.marginal(ds, e) for e in structure.keys}
    floor = marginals.default_floor(len(ds))
    return sdg._consistent_tree_tables(node_probs, edge_probs, structure.keys, floor)


def grid_of(domain):
    return np.array(list(itertools.product(*[range(c) for c in domain.cardinalities])))


def test_01_density_normalization():
    """200 random models over domains <= 4096 cells sum to 1 within 1e-9."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for trial in range(200):
        while True:
            d = int(rng.integers(2, 7))
            cards = rng.integers(2, 9, size=d)
            if np.prod(cards) <= 4096:
                break
        ds = make_ds(cards, rng.integers(0, cards, size=(150, d)))
        eps = float(rng.choice([0.5, 5.0, 50.0, INF]))
        if trial % 2 == 0:
            model = sdg.fit_mst(ds, DpParams(eps, delta=1e-9), trial)
        else:
            model = sdg.fit_privbayes(ds, DpParams(eps), trial)
        total = np.exp(sdg.log_density(model, grid_of(ds.domain))).sum()
        worst = max(worst, abs(total - 1.0))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 30.0
    verdict(1, "density normalization", ok, f"max |sum-1| {worst:.2e}, {elapsed:.1f}s")


def test_02_noiseless_mst_optimality():
    """fit_mst at eps=inf matches brute-force max spanning tree, d <= 5."""
    rng = np.random.default_rng(202)
    failures = 0
    for trial in range(100):
        d = int(rng.integers(3, 6))
        ds = random_ds(rng, d, 4, 200)
        model = sdg.fit_mst(ds, DpParams(INF), trial)
        scores = {
            (i, j): sdg.mst_edge_score(ds, i, j)
            for i in range(d)
            for j in range(i + 1, d)
        }
        pairs = list(scores)
        best = -INF
        for combo in itertools.combinations(pairs, d - 1):
            parent = list(range(d))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            acyclic = True
            for i, j in combo:
                ri, rj = find(i), find(j)
                if ri == rj:
                    acyclic = False
                    break
                parent[ri] = rj
            if acyclic:
                best = max(best, sum(scores[e] for e in combo))
        got = sum(scores[e] for e in model.structure.keys)
        if abs(got - best) > 1e-12:
            failures += 1
    verdict(2, "noiseless MST optimality", failures == 0, f"{failures}/100 suboptimal")


def test_03_mst_recovery():
    """Tree recovery from synth at eps in {10,100,1000}: >=95% edges, >=90% perfect."""
    start = time.monotonic()
    accuracies, perfects = [], []
    replica = 0
    for eps in (10.0, 100.0, 1000.0):
        for r in range(20):
            replica += 1
            train = generate_households(
                10000, n_attrs=8, max_cardinality=8, seed=dp.derive_seed(303, replica)
            )
            model = sdg.fit_mst(train, DpParams(eps, delta=1e-9), replica)
            synth = sdg.sample(model, 10000, dp.derive_seed(304, replica))
            est = recovery.recover_tree(synth)
            metrics = evaluation.recovery_metrics(model.structure, est)
            accuracies.append(metrics["choice_accuracy"])
            perfects.append(metrics["perfect_match"])
    elapsed = time.monotonic() - start
    mean_acc = float(np.mean(accuracies))
    perfect_rate = float(np.mean(perfects))
    ok = mean_acc >= 0.95 and perfect_rate >= 0.90 and elapsed < 300.0
    verdict(
        3, "MST structure recovery", ok,
        f"edge acc {mean_acc:.3f}, perfect {perfect_rate:.2f}, {elapsed:.0f}s",
    )


def test_04_attack_power_vs_privacy():
    """Household TAMIS-MST AUROC: eps=1000 beats eps=0.1 by >= 5 points."""
    start = time.monotonic()
    aux = generate_households(50000, n_attrs=8, max_cardinality=8, seed=404)
    split = SplitSpec(n_target_households=100, min_household_size=5, train_size=10000)
    aurocs = {0.1: [], 1000.0: []}
    for r in range(20):
        rseed = dp.derive_seed(405, r)
        train_idx, target_idx, labels = snake_split_indices(
            aux, SplitSpec(100, 5, 10000, seed=rseed)
        )
        train = aux.subset(train_idx)
        target = aux.subset(target_idx)
        target_hh = aux.household_id[target_idx]
        hh_labels = harness._household_labels(target_hh, labels)
        for eps in aurocs:
            model = sdg.fit_mst(train, DpParams(eps, delta=1e-9), dp.derive_seed(rseed, 1))
            synth = sdg.sample(model, 10000, dp.derive_seed(rseed, 2))
            edges = recovery.recover_tree(synth)
            logs = attack.tamis_mst(target, edges, synth, aux)
            hh = attack.aggregate_households(logs, target_hh)
            aurocs[eps].append(evaluation.auroc(hh, hh_labels))
    elapsed = time.monotonic() - start
    low = float(np.mean(aurocs[0.1]))
    high = float(np.mean(aurocs[1000.0]))
    ok = (high - low >= 0.05) and (0.40 <= low <= 0.60) and elapsed < 900.0
    verdict(
        4, "attack power vs privacy", ok,
        f"AUROC eps=0.1 {low:.3f}, eps=1000 {high:.3f}, {elapsed:.0f}s",
    )


def test_05_score_identities():
    """Hybrid == MAMA-MIA under indicator weights; identity gives score 1."""
    rng = np.random.default_rng(505)
    hybrid_ok = True
    for _ in range(100):
        d = int(rng.integers(3, 6))
        cards = rng.integers(2, 5, size=d)
        dom = Domain([f"a{i}" for i in range(d)], cards.tolist())
        synth = Dataset(dom, rng.integers(0, cards, size=(200, d)))
        aux = Dataset(dom, rng.integers(0, cards, size=(300, d)))
        target = Dataset(dom, rng.integers(0, cards, size=(30, d)))
        perm = rng.permutation(d)
        edges = sdg.Structure("mst", tuple(sorted(tuple(sorted((int(perm[k]), int(perm[k + 1])))) for k in range(d - 1))))
        w = recovery.ShadowWeights("mst", 1, {e: 1 for e in edges.keys})
        h = attack.hybrid_mst(target, edges, synth, aux)
        m = attack.mamamia_mst(target, w, synth, aux)
        if not np.array_equal(h, m):
            hybrid_ok = False
        order = sdg.Structure("privbayes", tuple((int(perm[k]), (int(perm[k - 1]),) if k else ()) for k in range(d)))
        wp = recovery.ShadowWeights("privbayes", 1, {(n, p): 1 for n, p in order.keys})
        hp = attack.hybrid_pb(target, order, synth, aux)
        mp = attack.mamamia_pb(target, wp, synth, aux)
        if not np.array_equal(hp, mp):
            hybrid_ok = False

    ds = Dataset(
        Domain(["a", "b", "c", "d"], [3, 2, 4, 2]),
        rng.integers(0, [3, 2, 4, 2], size=(250, 4)),
    )
    tgt = ds.subset(np.arange(40))
    edges = sdg.Structure("mst", ((0, 1), (1, 2), (2, 3)))
    order = sdg.Structure("privbayes", ((2, ()), (0, (2,)), (1, (0,)), (3, (1, 2))))
    w = recovery.ShadowWeights("mst", 1, {e: 1 for e in edges.keys})
    wp = recovery.ShadowWeights("privbayes", 1, {(n, p): 1 for n, p in order.keys})
    identity_vectors = [
        attack.tamis_mst(tgt, edges, ds, ds),
        attack.tamis_pb(tgt, order, ds, ds),
        attack.mamamia_mst(tgt, w, ds, ds),
        attack.mamamia_pb(tgt, wp, ds, ds),
        attack.hybrid_mst(tgt, edges, ds, ds),
        attack.hybrid_pb(tgt, order, ds, ds),
        attack.tamis_mst_avg(tgt, edges, ds, ds),
        attack.marginals_sigma(tgt, ds, ds),
    ]
    identity_ok = all(np.abs(logs).max() < 1e-12 for logs in identity_vectors)
    pi = attack.marginals_pi(tgt, ds, ds)
    prefactor = 1.0 / (4 + 4 * 3 // 2)
    identity_ok &= bool(np.abs(pi - np.log(prefactor)).max() < 1e-12)
    verdict(5, "score identities", hybrid_ok and identity_ok)


def counted_conditional(ds, node, parents):
    """P(node | parents) counted with np.bincount: each block normalised, unseen parents uniform,
    then floored at 1/(10n) and each block renormalised."""
    cards = ds.domain.cardinalities
    shape = tuple(cards[a] for a in (*parents, node))
    flat = np.ravel_multi_index(tuple(ds.rows[:, a] for a in (*parents, node)), shape)
    joint = np.bincount(flat, minlength=int(np.prod(shape))).reshape(-1, shape[-1]).astype(float)
    sums = joint.sum(axis=1, keepdims=True)
    cond = np.where(sums > 0, joint / np.maximum(sums, 1), 1 / shape[-1])
    cond = np.maximum(cond, 1 / (10 * len(ds)))
    return (cond / cond.sum(axis=1, keepdims=True)).reshape(shape)


def test_06_tamis_equals_density_ratio():
    """TAMIS scores equal the factorized density ratio per record, 1e-9."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 5))
        cards = rng.integers(2, 5, size=d)
        dom = Domain([f"a{i}" for i in range(d)], cards.tolist())
        synth = Dataset(dom, rng.integers(0, cards, size=(150, d)))
        aux = Dataset(dom, rng.integers(0, cards, size=(200, d)))
        target = Dataset(dom, rng.integers(0, cards, size=(25, d)))
        perm = rng.permutation(d)
        edges = sdg.Structure("mst", tuple(sorted(tuple(sorted((int(perm[k]), int(perm[k + 1])))) for k in range(d - 1))))
        order = sdg.Structure("privbayes", tuple((int(perm[k]), (int(perm[k - 1]),) if k else ()) for k in range(d)))

        logs = attack.tamis_mst(target, edges, synth, aux)
        ns, es = tree_tables(synth, edges)
        na, ea = tree_tables(aux, edges)
        # independent route: explicit per-record node and edge table products
        deg = np.bincount(np.ravel(edges.keys), minlength=d)
        oracle = np.zeros(len(target))
        for i in range(d):
            oracle += (1 - deg[i]) * (
                np.log(ns[i][target.rows[:, i]]) - np.log(na[i][target.rows[:, i]])
            )
        for e in edges.keys:
            cells = tuple(target.rows[:, e].T)
            oracle += np.log(es[e][cells]) - np.log(ea[e][cells])
        worst = max(worst, float(np.abs(np.exp(logs) - np.exp(oracle)).max()))

        logs_p = attack.tamis_pb(target, order, synth, aux)
        oracle_p = np.zeros(len(target))
        for node, parents in order.keys:
            cond_s, cond_a = counted_conditional(synth, node, parents), counted_conditional(aux, node, parents)
            cells = tuple(target.rows[:, a] for a in (*parents, node))
            oracle_p += np.log(cond_s[cells]) - np.log(cond_a[cells])
        worst = max(worst, float(np.abs(np.exp(logs_p) - np.exp(oracle_p)).max()))
    verdict(6, "TAMIS equals density ratio", worst < 1e-9, f"max err {worst:.2e}")


def test_07_calibration_exactness():
    """Predicted-positive fraction matches the prior within 1/N."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 200))
        prior = float(rng.uniform(0.05, 0.95))
        _, preds = attack.activate_calibrated(rng.normal(size=n) * rng.uniform(0.1, 5.0), prior)
        worst = max(worst, abs(preds.mean() - prior) - 1.0 / n)
    verdict(7, "calibrated activation exactness", worst <= 0.0, f"max excess {worst:.2e}")


def test_08_metric_oracles():
    """AUROC vs O(n^2) oracle, monotone invariance, recovery set oracle."""
    rng = np.random.default_rng(808)
    auroc_ok = True
    for _ in range(1000):
        n = int(rng.integers(4, 51))
        scores = rng.choice(rng.normal(size=max(2, n // 3)), size=n)  # force ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = sum((p > neg).sum() + 0.5 * (p == neg).sum() for p in pos)
        oracle = wins / (len(pos) * len(neg))
        if abs(evaluation.auroc(scores, labels) - oracle) > 1e-12:
            auroc_ok = False

    mono_ok = True
    for _ in range(100):
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = evaluation.auroc(scores, labels)
        knots = np.sort(rng.uniform(0.1, 2.0, size=5))  # random increasing pwl map

        def monotone(x):
            return np.interp(x, np.linspace(x.min(), x.max(), 5), np.cumsum(knots))

        if abs(evaluation.auroc(monotone(scores), labels) - base) > 1e-12:
            mono_ok = False

    rec_ok = True
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    for _ in range(200):
        a = {pairs[k] for k in rng.choice(len(pairs), int(rng.integers(1, 7)), replace=False)}
        b = {pairs[k] for k in rng.choice(len(pairs), int(rng.integers(1, 7)), replace=False)}
        m = evaluation.recovery_metrics(sdg.Structure("mst", sorted(a)), sdg.Structure("mst", sorted(b)))
        inter, union = a & b, a | b
        exact = (
            m["choice_accuracy"] == len(inter) / len(a)
            and m["precision"] == len(inter) / len(b)
            and m["recall"] == len(inter) / len(a)
            and m["jaccard"] == len(inter) / len(union)
            and m["perfect_match"] == (a == b)
        )
        if not exact:
            rec_ok = False
    verdict(8, "metric oracles", auroc_ok and mono_ok and rec_ok)


def test_09_dp_mechanism_fidelity():
    """Exponential mechanism vs analytic softmax; noise moment checks."""
    rng = np.random.default_rng(909)
    n_draws = 10**5
    chi_ok = True
    min_p = 1.0
    for trial in range(20):
        k = int(rng.integers(2, 8))
        scores = rng.uniform(0.0, 3.0, size=k)
        eps, sens = float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.2, 2.0))
        logits = eps * scores / (2 * sens)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        draws = dp.exponential_mechanism(scores, eps, sens, seed=trial, size=n_draws)
        observed = np.bincount(draws, minlength=k)
        p_value = stats.chisquare(observed, probs * n_draws).pvalue
        min_p = min(min_p, p_value)
        if p_value <= 0.001:
            chi_ok = False

    lap = dp.laplace_noise(1.7, 10**6, seed=1)
    lap_ok = abs(lap.mean()) < 5 * 1.7 / 1000 and abs(np.abs(lap).mean() - 1.7) / 1.7 < 0.01
    gau = dp.gaussian_noise(2.5, 10**6, seed=2)
    gau_ok = abs(gau.var() - 6.25) / 6.25 < 0.02
    ok = chi_ok and lap_ok and gau_ok
    verdict(9, "DP mechanism fidelity", ok, f"min chi-square p {min_p:.4f}")


def test_10_replicate_determinism(tmp_path):
    """Two full experiment runs with one config are byte-identical."""
    def run(out):
        cfg = harness.ExperimentConfig(
            out_dir=out,
            replicas=2,
            epsilons=(1.0, INF),
            methods=("mst", "privbayes"),
            attacks=("tamis-mst", "mamamia-pb", "hybrid-pb*", "marginals-pi"),
            split=SplitSpec(n_target_households=15, min_household_size=3, train_size=800),
            shadow_k=2,
            data={"kind": "generate", "n_rows": 5000, "n_attrs": 4, "max_cardinality": 3},
            seed=10,
        )
        harness.run_experiment(cfg)
        blobs = []
        for r in range(2):
            with open(f"{out}/replica_{r:04d}.csv", "rb") as fh:
                blobs.append(fh.read())
        return blobs

    first = run(str(tmp_path / "run1"))
    second = run(str(tmp_path / "run2"))
    ok = all(a == b for a, b in zip(first, second)) and len(first[0]) > 0
    verdict(10, "replicate determinism", ok)
