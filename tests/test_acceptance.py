"""End-to-end acceptance suite.

Eleven numbered criteria, each printing one PASS/FAIL line (echoed in
the terminal summary).  Oracles are implemented here from scratch:
quadruple-loop convolution, ball-bounded exhaustive image search,
2^m center enumeration, Fraction arithmetic, finite differences.
"""

import time

import numpy as np
import pytest
from conftest import record

from biopreimage import (
    GrayImage,
    SolveStatus,
    SolverConfig,
    Template,
    binarize,
    build_image_phase,
    build_merged,
    build_multi_auth,
    build_multi_collision,
    capacity,
    derive_matrix,
    enroll,
    hamming_center,
    hamming_distance,
    independence_probability,
    matrix_digest,
    project,
    sobel,
    solve_qcqp,
    verify,
)
from biopreimage.cli import main
from biopreimage.pipeline import SOBEL_X, SOBEL_Y
from biopreimage.solver import ImageModel, MergedModel, conv_operators


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {criterion} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    record(line)
    assert ok, line


# -------------------------------------------------------------------
# 1. Forward conformance against a literal convolution oracle


def _conv_oracle(kernel, pixels):
    h, w = pixels.shape
    padded = np.zeros((h + 2, w + 2))
    padded[1:-1, 1:-1] = pixels
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for i in range(3):
                for j in range(3):
                    acc += kernel[2 - i, 2 - j] * padded[r + i, c + j]
            out[r, c] = acc
    return out


def test_criterion_1_forward_conformance():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        img = GrayImage(w, h, rng.integers(0, 256, size=(h, w)))
        pix = img.pixels.astype(np.float64)
        gx = _conv_oracle(SOBEL_X, pix)
        gy = _conv_oracle(SOBEL_Y, pix)
        want = np.sqrt(gx * gx + gy * gy).ravel()
        err = float(np.abs(sobel(img) - want).max())
        worst = max(worst, err)
    sign_ok = True
    for _ in range(200):
        v = rng.standard_normal(int(rng.integers(1, 40)))
        v[rng.random(v.size) < 0.2] = 0.0
        bits = binarize(v).bits
        sign_ok &= bool(((v < 0) == (bits == 0)).all())
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and sign_ok and elapsed < 10.0
    report(
        1,
        "forward conformance",
        ok,
        f"1000 images max |err| {worst:.2e}, sign rule {'ok' if sign_ok else 'BAD'}, "
        f"{elapsed:.1f}s",
    )


# -------------------------------------------------------------------
# 2 and 3. Merged preimage attacks at 2x2/20 and 3x3/20


def _merged_batch(side, trials, seed0, time_limit=150.0):
    rng = np.random.default_rng(seed0)
    certified = 0
    distances = []
    for t in range(trials):
        victim = GrayImage(side, side, rng.integers(0, 256, size=(side, side)))
        anchor = GrayImage(side, side, rng.integers(0, 256, size=(side, side)))
        password = f"batch{side}-{t}"
        template = enroll(victim, password, 20)
        prob = build_merged(anchor, template, password=password.encode())
        rep = solve_qcqp(prob, SolverConfig(time_limit=time_limit, rng_seed=seed0 + t))
        assert rep.wall_time <= time_limit + 10.0
        if rep.status is SolveStatus.CERTIFIED_FEASIBLE:
            # trust nothing: push the answer back through enrollment
            assert enroll(rep.solution, password, 20) == template
            certified += 1
            distances.append(rep.euclidean_distance)
    return certified, distances


@pytest.mark.slow
def test_criterion_2_preimage_2x2():
    certified, _ = _merged_batch(2, 50, seed0=200)
    ok = certified >= 45
    report(2, "2x2/20 preimage", ok, f"{certified}/50 certified (need >= 45)")


@pytest.mark.slow
def test_criterion_3_preimage_3x3():
    certified, distances = _merged_batch(3, 20, seed0=300)
    mean_d = float(np.mean(distances)) if distances else float("nan")
    ok = certified >= 10 and np.isfinite(mean_d)
    report(
        3,
        "3x3/20 preimage",
        ok,
        f"{certified}/20 certified (need >= 10), mean pixel distance {mean_d:.1f}",
    )


# -------------------------------------------------------------------
# 4. Desk-scale optimality against a ball-bounded exhaustive search


def _exhaustive_2x2_optimum(anchor, template, matrix, budget_sq):
    """Minimum squared distance over every integer image in the closed
    ball of radius sqrt(budget_sq) around the anchor whose enrollment
    reproduces the template.  Offsets for the first two pixels are
    enumerated in ascending partial cost so the scan can stop early;
    the last two are vectorized.  Winners are confirmed through the
    exact pipeline before being adopted."""
    a1, a2 = conv_operators(anchor.height, anchor.width)
    a = anchor.flat()
    want = template.bits.astype(bool)
    r = int(np.floor(np.sqrt(budget_sq)))
    los = np.maximum(-r, -a)
    his = np.minimum(r, 255 - a)
    pairs = []
    for o0 in range(los[0], his[0] + 1):
        for o1 in range(los[1], his[1] + 1):
            base = o0 * o0 + o1 * o1
            if base <= budget_sq:
                pairs.append((base, o0, o1))
    pairs.sort()
    best = None
    for base, o0, o1 in pairs:
        if best is not None and base > best:
            break
        lim = budget_sq if best is None else best
        rem = lim - base
        if rem < 0:
            continue
        r2 = int(np.floor(np.sqrt(rem)))
        g2 = np.arange(max(los[2], -r2), min(his[2], r2) + 1)
        g3 = np.arange(max(los[3], -r2), min(his[3], r2) + 1)
        if g2.size == 0 or g3.size == 0:
            continue
        o2, o3 = (m.reshape(-1) for m in np.meshgrid(g2, g3, indexing="ij"))
        norm = base + o2 * o2 + o3 * o3
        keep = norm <= lim
        if not keep.any():
            continue
        o2, o3, norm = o2[keep], o3[keep], norm[keep]
        x = np.stack(
            [
                np.full(o2.shape, a[0] + o0),
                np.full(o2.shape, a[1] + o1),
                a[2] + o2,
                a[3] + o3,
            ],
            axis=1,
        ).astype(np.float64)
        u = x @ a1.T
        v = x @ a2.T
        p = np.sqrt(u * u + v * v) @ matrix
        feas = ((p >= 0) == want).all(axis=1)
        if feas.any():
            i = np.flatnonzero(feas)[np.argmin(norm[feas])]
            img = GrayImage.from_flat(2, 2, x[i].astype(np.int64))
            if binarize(project(sobel(img), matrix)) == template:
                cand = int(norm[i])
                if best is None or cand < best:
                    best = cand
    return best


def test_criterion_4_desk_scale_optimality():
    t0 = time.monotonic()
    rng = np.random.default_rng(400)
    certified = 0
    matches = 0
    unsound = 0
    for i in range(100):
        side = 1 if i < 50 else 2
        m = int(rng.integers(1, 5))
        victim = GrayImage(side, side, rng.integers(0, 256, size=(side, side)))
        noise = rng.integers(-25, 26, size=(side, side))
        anchor = GrayImage(side, side, np.clip(victim.pixels + noise, 0, 255))
        password = f"opt4-{i}"
        template = enroll(victim, password, m)
        prob = build_merged(anchor, template, password=password.encode())
        rep = solve_qcqp(prob, SolverConfig(time_limit=150, rng_seed=i + 1))
        if rep.status is not SolveStatus.CERTIFIED_FEASIBLE:
            continue
        certified += 1
        solver_obj = int(round(rep.objective))
        if side == 1:
            # a lone pixel projects to all-ones; the anchor itself wins
            opt = 0 if bool(template.bits.all()) else None
        else:
            matrix = derive_matrix(password, 4, m)
            opt = _exhaustive_2x2_optimum(anchor, template, matrix, solver_obj)
        if opt is None or solver_obj < opt:
            unsound += 1
        elif solver_obj == opt:
            matches += 1
    elapsed = time.monotonic() - t0
    ok = (
        certified > 0
        and unsound == 0
        and matches >= int(np.ceil(0.95 * certified))
        and elapsed < 1800
    )
    report(
        4,
        "desk-scale optimality",
        ok,
        f"{matches}/{certified} certified objectives match the exhaustive optimum "
        f"(need >= 95%), {unsound} below it (need 0), {elapsed:.0f}s",
    )


# -------------------------------------------------------------------
# 5. Multi-collision: one image satisfying two victims at once


@pytest.mark.slow
def test_criterion_5_multi_collision():
    rng = np.random.default_rng(500)
    both = 0
    for t in range(20):
        v1 = GrayImage(4, 4, rng.integers(0, 256, size=(4, 4)))
        v2 = GrayImage(4, 4, rng.integers(0, 256, size=(4, 4)))
        anchor = GrayImage(4, 4, rng.integers(0, 256, size=(4, 4)))
        pw1, pw2 = f"mc-{t}-a", f"mc-{t}-b"
        t1, t2 = enroll(v1, pw1, 8), enroll(v2, pw2, 8)
        prob = build_multi_collision(anchor, [(t1, pw1.encode()), (t2, pw2.encode())])
        rep = solve_qcqp(prob, SolverConfig(time_limit=150, rng_seed=500 + t))
        if rep.status is SolveStatus.CERTIFIED_FEASIBLE:
            assert enroll(rep.solution, pw1, 8) == t1
            assert enroll(rep.solution, pw2, 8) == t2
            both += 1
    ok = both >= 14
    report(5, "multi-collision 4x4", ok, f"{both}/20 trials satisfy both victims (need >= 14)")


# -------------------------------------------------------------------
# 6. Multi-auth: center of two templates at distance 2*epsilon


@pytest.mark.slow
def test_criterion_6_multi_auth():
    rng = np.random.default_rng(600)
    eps = 3
    acceptances = 0
    trials = 10
    for t in range(trials):
        # Victim templates are planted near a pattern the attacker's own
        # matrix can realize; flipping two disjoint eps-sized index sets
        # puts them exactly 2*eps apart with the plant as a center.
        attacker_pw = f"attacker-{t}"
        seed_image = GrayImage(3, 3, rng.integers(0, 256, size=(3, 3)))
        base = enroll(seed_image, attacker_pw, 20)
        flips = np.sort(rng.choice(20, size=2 * eps, replace=False))
        t1 = Template(base.bits ^ np.isin(np.arange(20), flips[eps:]).astype(np.uint8))
        t2 = Template(base.bits ^ np.isin(np.arange(20), flips[:eps]).astype(np.uint8))
        assert hamming_distance(t1, t2) == 2 * eps
        res = hamming_center([t1, t2], eps)
        assert res.radius <= eps
        assert res.members == (0, 1)
        anchor = GrayImage(3, 3, rng.integers(0, 256, size=(3, 3)))
        prob = build_multi_auth(anchor, res.center, password=attacker_pw.encode())
        rep = solve_qcqp(prob, SolverConfig(time_limit=150, rng_seed=600 + t))
        if rep.status is SolveStatus.CERTIFIED_FEASIBLE:
            forged = enroll(rep.solution, attacker_pw, 20)
            for tmpl in (t1, t2):
                if verify(forged, tmpl, eps).accepted:
                    acceptances += 1
    ok = acceptances == 2 * trials
    report(
        6,
        "multi-auth geometry",
        ok,
        f"{acceptances}/{2 * trials} covered-member verify acceptances (need all)",
    )


# -------------------------------------------------------------------
# 7. Hamming-center exactness against 2^m enumeration


def _center_oracle(bit_rows, epsilon):
    rows = np.asarray(bit_rows, dtype=np.uint8)
    m = rows.shape[1]
    cands = ((np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8)
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    alive = list(range(len(rows)))
    while True:
        radius = (cands[:, None, :] != rows[alive][None, :, :]).sum(axis=2).max(axis=1)
        tie = (cands ^ rows[alive[0]]) @ weights
        best = int(np.lexsort((tie, radius))[0])
        center, rad = cands[best], int(radius[best])
        if rad <= epsilon or len(alive) == 1:
            return center, rad, tuple(alive)
        dist = (rows[alive] != center).sum(axis=1)
        alive.pop(int(np.argmax(dist)))


def test_criterion_7_center_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(700)
    bad = 0
    for _ in range(500):
        m = int(rng.integers(1, 13))
        k = int(rng.integers(1, 5))
        eps = int(rng.integers(0, m + 1))
        ts = [Template(rng.integers(0, 2, size=m)) for _ in range(k)]
        want_center, want_radius, want_members = _center_oracle(
            np.stack([t.bits for t in ts]), eps
        )
        res = hamming_center(ts, eps)
        if (
            res.radius != want_radius
            or res.members != want_members
            or not np.array_equal(res.center.bits, want_center)
        ):
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 60
    report(
        7,
        "hamming-center exactness",
        ok,
        f"{500 - bad}/500 cases match the 2^m enumeration, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------
# 8. Capacity analysis hand values


def test_criterion_8_hand_values():
    vals = (
        independence_probability(37, 1, 5),
        independence_probability(2, 2, 1),
        capacity(16, 8),
    )
    ok = vals == (1.0, 0.5, 2)
    report(8, "capacity hand values", ok, f"P(k=1)={vals[0]}, P(2,2,1)={vals[1]}, cap(16,8)={vals[2]}")


# -------------------------------------------------------------------
# 9. Bit-exact reproducibility


def test_criterion_9_reproducibility(tmp_path):
    rng = np.random.default_rng(900)
    img = GrayImage(3, 3, rng.integers(0, 256, size=(3, 3)))
    same_template = enroll(img, "repro-pw", 24) == enroll(img, "repro-pw", 24)

    digest = matrix_digest(derive_matrix("golden-password", 4, 3))
    same_matrix = (
        digest == matrix_digest(derive_matrix("golden-password", 4, 3))
        and digest == 0xCEF07648CE7A8314
    )

    csvs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = main([
            "bench", "--image-size", "2", "--template-size", "8", "--trials", "2",
            "--seed", "17", "--time-limit", "60", "--workers", "1",
            "--no-timing", "--out", str(path),
        ])
        assert rc == 0
        csvs.append(path.read_bytes())
    same_csv = csvs[0] == csvs[1]

    ok = same_template and same_matrix and same_csv
    report(
        9,
        "bit-exact reproducibility",
        ok,
        f"templates {'ok' if same_template else 'BAD'}, "
        f"matrix digest {'ok' if same_matrix else 'BAD'}, "
        f"bench csv {'ok' if same_csv else 'BAD'}",
    )


# -------------------------------------------------------------------
# 10. Analytic gradients against central finite differences


def _grad_check(model, z, lam, mu, rho):
    analytic = model.al_grad(z, lam, mu, rho)
    fd = np.zeros_like(z)
    h = 1e-6
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        fd[i] = (model.al_value(zp, lam, mu, rho) - model.al_value(zm, lam, mu, rho)) / (2 * h)
    denom = max(1.0, float(np.abs(analytic).max()))
    return float(np.abs(analytic - fd).max()) / denom


def test_criterion_10_gradient_validation():
    rng = np.random.default_rng(1000)
    worst = 0.0
    for trial in range(50):
        img = GrayImage(2, 2, rng.integers(0, 256, size=(2, 2)))
        anchor = GrayImage(2, 2, rng.integers(0, 256, size=(2, 2)))
        template = enroll(img, f"grad-{trial}", 6)
        merged = MergedModel(build_merged(anchor, template, password=f"grad-{trial}".encode()))
        image = ImageModel(build_image_phase(anchor, sobel(img)))
        for model in (merged, image):
            z = rng.uniform(0.05, 0.95, size=model.upper.size) * model.upper
            lam = rng.standard_normal(model.n_eq)
            mu = np.abs(rng.standard_normal(model.n_ineq))
            rho = float(10 ** rng.uniform(0, 2))
            worst = max(worst, _grad_check(model, z, lam, mu, rho))
    ok = worst <= 1e-4
    report(
        10,
        "gradient validation",
        ok,
        f"100 random points, worst relative error {worst:.2e} (tol 1e-4)",
    )


# -------------------------------------------------------------------
# 11. Distance preservation of the scaled projection


def test_criterion_11_jl_sandwich():
    rng = np.random.default_rng(1100)
    n, m = 100, 50
    scale = np.sqrt(12.0 / m)
    good = 0
    for i in range(200):
        mat = derive_matrix(f"jl-{i}", n, m) * scale
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        d = float(np.linalg.norm(u - v))
        dp = float(np.linalg.norm((u - v) @ mat))
        if 0.25 * d <= dp <= 1.75 * d:
            good += 1
    ok = good >= 180
    report(
        11,
        "projection distance sandwich",
        ok,
        f"{good}/200 pairs within (1 +/- 0.75) (need >= 180)",
    )
