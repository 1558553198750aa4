from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import ebcv
import oracles
from ebcv.frames import (_CHUNK, J_TWIST, FrameJet, ModelParams,
                         levi_civita_tensor, sample_domain_points)
from ebcv.curvature import (
    _J,
    gamma_frame_bundle,
    ricci_frame,
    riemann_frame,
    riemann_frame_bundle,
    scalar_curvature,
)
from ebcv.homogeneous import ambrose_singer_check, parallelism_residuals

PARAM_GRID = [
    ModelParams(0.0, 1.0),
    ModelParams(1.0, 1.0),
    ModelParams(-0.5, 2.0),
    ModelParams(0.0, 0.0),
    ModelParams(0.7, -1.3),
]


def _pt(**kw):
    q = np.zeros(7)
    names = "rstwxyz"
    for key, val in kw.items():
        q[names.index(key)] = val
    return q


# --- the bundle route -----------------------------------------------------------

#: (m, l) of the two-route tests: the report matrix's small values, the
#: large |l| and |m| where the connection and curvature grow large, and the
#: rest of PARAM_GRID: negative l and the flat case, where both routes must
#: agree exactly.
BUNDLE_GRID = [(1.0, 1.0), (0.5, 1.5), (-0.5, 1.0), (0.0, 1.0), (3.0, 2.0),
               (1.0, 0.0), (-3.0, 1.0), (0.0, 30.0), (0.0, 100.0),
               (1.0, 50.0), (1.0, 100.0), (100.0, 1.0), (1e4, 1.0),
               (-0.5, 2.0), (0.0, 0.0), (0.7, -1.3), (1.0, -100.0)]


def test_bundle_twist_is_the_quaternion_product():
    assert np.array_equal(_J, J_TWIST)


def test_gamma_frame_two_routes_agree():
    for m, l in BUNDLE_GRID:
        p = ModelParams(m, l)
        pts = sample_domain_points(p, 8, seed=14)
        koszul = levi_civita_tensor(pts, p)
        bundle = gamma_frame_bundle(pts, p)
        gap = np.abs(koszul - bundle).max()
        assert gap <= 1e-14 * np.abs(koszul).max(), (m, l, gap)


# --- curvature ----------------------------------------------------------------


def test_riemann_two_routes_agree():
    for m, l in BUNDLE_GRID:
        p = ModelParams(m, l)
        pts = sample_domain_points(p, 8, seed=14)
        cartan = riemann_frame(pts, p)
        bundle = riemann_frame_bundle(pts, p)
        gap = np.abs(cartan - bundle).max()
        assert gap <= 1e-14 * np.abs(cartan).max(), (m, l, gap)


def test_riemann_examples():
    R = riemann_frame(_pt(), ModelParams(0.0, 2.0))
    assert R[0, 3, 0, 3] == pytest.approx(1.0, abs=1e-9)
    assert R[5, 6, 5, 6] == pytest.approx(-3.0, abs=1e-9)
    R = riemann_frame(_pt(y=1), ModelParams(1.0, 1.0))
    assert R[0, 3, 0, 3] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("m,l", [(0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (-0.5, 1.0)])
def test_riemann_frame_equals_bundle_riemann_exactly(m, l):
    # riemann_frame stops before nabla R; its R must be bit for bit the R of
    # a jet that builds nabla R too, as verify and ambrose_singer_check do
    p = ModelParams(m, l)
    pts = sample_domain_points(p, 6, seed=21)
    fr = FrameJet(pts, p)
    fr.nabla_R
    assert np.array_equal(riemann_frame(pts, p), fr.R)


def test_riemann_symmetries_and_first_bianchi():
    for p in PARAM_GRID:
        pts = sample_domain_points(p, 10, seed=19)
        R = riemann_frame(pts, p)
        assert np.abs(R + np.einsum("...abcd->...bacd", R)).max() < 1e-8
        assert np.abs(R + np.einsum("...abcd->...abdc", R)).max() < 1e-8
        assert np.abs(R - np.einsum("...abcd->...cdab", R)).max() < 1e-8
        # first Bianchi: cyclic sum over the slots dual to (sigma, mu, nu)
        bianchi = (
            R
            + np.einsum("...bdca->...abcd", R)
            + np.einsum("...dacb->...abcd", R)
        )
        assert np.abs(bianchi).max() < 1e-8


def test_riemann_flat_case():
    p = ModelParams(0.0, 0.0)
    pts = sample_domain_points(p, 10, seed=23)
    assert np.abs(riemann_frame(pts, p)).max() < 1e-12


def test_riemann_matches_fd_oracle():
    p = ModelParams(0.9, 1.4)
    pts = sample_domain_points(p, 3, seed=27)
    R = riemann_frame(pts, p)
    for k in range(pts.shape[0]):
        want = oracles.riemann_oracle(pts[k], p.m, p.l)
        np.testing.assert_allclose(R[k], want, atol=2e-4)


def _conformal_k(q, m):
    return 1.0 + m * np.sum(q[3:] ** 2)


def test_published_sectional_table():
    """The twelve displayed curvature identities hold for the computed tensor."""
    for p in [ModelParams(0.0, 1.0), ModelParams(1.0, 1.0), ModelParams(-0.5, 2.0)]:
        pts = sample_domain_points(p, 10, seed=31)
        R = riemann_frame(pts, p)
        m, l = p.m, p.l
        for k in range(pts.shape[0]):
            r_, s_, t_, w, x, y, z = pts[k]
            K = _conformal_k(pts[k], m)
            quarter = l * l / 4.0
            vals = {
                (1, 4): quarter * (1 + m * (K + 1) * (y * y + z * z)),
                (1, 5): quarter * (1 + m * (K + 1) * (y * y + z * z)),
                (1, 6): quarter * (1 + m * (K + 1) * (w * w + x * x)),
                (1, 7): quarter * (1 + m * (K + 1) * (w * w + x * x)),
                (2, 4): quarter * (1 + m * (K + 1) * (x * x + z * z)),
                (2, 6): quarter * (1 + m * (K + 1) * (x * x + z * z)),
                (2, 5): quarter * (1 + m * (K + 1) * (w * w + y * y)),
                (2, 7): quarter * (1 + m * (K + 1) * (w * w + y * y)),
                (3, 4): quarter * (1 + m * (K + 1) * (x * x + y * y)),
                (3, 7): quarter * (1 + m * (K + 1) * (x * x + y * y)),
                (3, 5): quarter * (1 + m * (K + 1) * (w * w + z * z)),
                (3, 6): quarter * (1 + m * (K + 1) * (w * w + z * z)),
            }
            for (a, b), want in vals.items():
                got = R[k, a - 1, b - 1, a - 1, b - 1]
                assert got == pytest.approx(want, abs=1e-9), (a, b)
            horiz = {
                (4, 5): 4 * m - 3 * vals[(1, 4)],
                (4, 6): 4 * m - 3 * vals[(2, 4)],
                (4, 7): 4 * m - 3 * vals[(3, 4)],
                (5, 6): 4 * m - 3 * vals[(3, 5)],
                (5, 7): 4 * m - 3 * vals[(2, 5)],
                (6, 7): 4 * m - 3 * vals[(1, 6)],
            }
            for (a, b), want in horiz.items():
                got = R[k, a - 1, b - 1, a - 1, b - 1]
                assert got == pytest.approx(want, abs=1e-9), (a, b)


# --- Ricci and scalar ----------------------------------------------------------


def test_ricci_m0_diagonal():
    l = 2.0
    p = ModelParams(0.0, l)
    pts = sample_domain_points(p, 10, seed=33)
    ric = ricci_frame(pts, p)
    want = np.diag([l * l] * 3 + [-1.5 * l * l] * 4)
    np.testing.assert_allclose(ric, np.broadcast_to(want, ric.shape), atol=1e-9)


def test_ricci_examples():
    ric = ricci_frame(_pt(x=1), ModelParams(1.0, 1.0))
    assert ric[0, 3] == pytest.approx(-4.0, abs=1e-9)
    assert ric[3, 0] == pytest.approx(-4.0, abs=1e-9)
    assert ric[3, 3] == pytest.approx(7.5, abs=1e-9)


def _ricci_published(q, m, l):
    """The displayed 7x7 Ricci matrix, typed entry by entry."""
    r_, s_, t_, w, x, y, z = q
    K = _conformal_k(q, m)
    A = -l * l * (K + 1)
    B = 12 * m - 1.5 * l * l
    vert = 0.5 * l * l * (K * K + 1)
    mixed = np.array(
        [
            [-m * l * x * (K + 2), -m * l * y * (K + 2), -m * l * z * (K + 2)],
            [m * l * w * (K + 2), m * l * z * (K + 2), -m * l * y * (K + 2)],
            [-m * l * z * (K + 2), m * l * w * (K + 2), m * l * x * (K + 2)],
            [m * l * y * (K + 2), -m * l * x * (K + 2), m * l * w * (K + 2)],
        ]
    )
    horiz = np.empty((4, 4))
    u = (w, x, y, z)
    for i in range(4):
        for j in range(4):
            if i == j:
                horiz[i, j] = A * (K - 1 - m * u[i] ** 2) + B
            else:
                horiz[i, j] = m * l * l * (K + 1) * u[i] * u[j]
    out = np.zeros((7, 7))
    out[:3, :3] = vert * np.eye(3)
    out[3:, :3] = mixed
    out[:3, 3:] = mixed.T
    out[3:, 3:] = horiz
    return out


def test_ricci_matches_published_matrix():
    p = ModelParams(1.0, 1.0)
    pts = sample_domain_points(p, 20, seed=35)
    ric = ricci_frame(pts, p)
    for k in range(pts.shape[0]):
        want = _ricci_published(pts[k], p.m, p.l)
        np.testing.assert_allclose(ric[k], want, atol=1e-8)


def test_scalar_examples():
    assert scalar_curvature(_pt(x=0.4), ModelParams(0.0, 0.0)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert scalar_curvature(_pt(w=0.2), ModelParams(0.0, 1.0)) == pytest.approx(
        -3.0, abs=1e-9
    )
    assert scalar_curvature(_pt(), ModelParams(1.0, 1.0)) == pytest.approx(
        45.0, abs=1e-9
    )


def test_scalar_equals_ricci_trace_and_published_trace():
    for p in PARAM_GRID:
        pts = sample_domain_points(p, 10, seed=37)
        scal = scalar_curvature(pts, p)
        tr = np.einsum("...aa->...", ricci_frame(pts, p))
        np.testing.assert_allclose(scal, tr, atol=1e-12)
        # trace of the displayed matrix: 48m - (3/2) l^2 (K^2 + 1)
        K = 1 + p.m * np.sum(pts[:, 3:] ** 2, axis=1)
        want = 48 * p.m - 1.5 * p.l**2 * (K**2 + 1)
        np.testing.assert_allclose(scal, want, atol=1e-8)


# --- covariant derivative of curvature -----------------------------------------


def test_nabla_riemann_second_bianchi():
    for p in [ModelParams(0.0, 1.0), ModelParams(1.0, 1.0), ModelParams(-0.5, 2.0)]:
        pts = sample_domain_points(p, 5, seed=41)
        nab = FrameJet(pts, p).nabla_R
        cyc = (
            nab
            + np.einsum("...abecd->...eabcd", nab)
            + np.einsum("...beacd->...eabcd", nab)
        )
        assert np.abs(cyc).max() < 1e-9


def test_nabla_riemann_matches_fd():
    # at m = 0, X R is zeros without its formula (dC is exactly 0)
    from ebcv.frames import frame_matrix

    for p in (ModelParams(0.6, 1.2), ModelParams(0.0, 1.0),
              ModelParams(0.0, -2.5)):
        pts = sample_domain_points(p, 2, seed=43)
        nab = FrameJet(pts, p).nabla_R
        gfr = levi_civita_tensor(pts, p)
        F = frame_matrix(pts, p)
        for k in range(pts.shape[0]):
            # the bundle route keeps the reference independent of Cartan's
            dR = oracles.fd_gradient(lambda qq: riemann_frame_bundle(qq, p),
                                     pts[k], h=1e-5)
            frame_dir = np.einsum("me,mabcd->eabcd", F[k], dR)
            R = riemann_frame_bundle(pts[k], p)
            corr = (
                np.einsum("eaf,fbcd->eabcd", gfr[k], R)
                + np.einsum("ebf,afcd->eabcd", gfr[k], R)
                + np.einsum("ecf,abfd->eabcd", gfr[k], R)
                + np.einsum("edf,abcf->eabcd", gfr[k], R)
            )
            np.testing.assert_allclose(nab[k], frame_dir - corr, atol=1e-5,
                                       err_msg=str(p))


def test_x_riemann_keeps_its_formula_at_a_tiny_m():
    # X R is zeros without its formula only where dC is exactly 0; at
    # m = 1e-12 dC holds +-2e-12, and X R is built in full
    p = ModelParams(1e-12, 1.0)
    fr = FrameJet(sample_domain_points(p, 3, seed=8), p)
    assert fr.dC.any()
    assert fr.xR.any()


# --- evaluation in fixed point chunks -------------------------------------------


@pytest.mark.parametrize("m,l", [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 1.5)])
def test_chunking_is_invisible(m, l):
    # every point's value is the one it has on its own, whatever the point
    # count (1, 33 and 200 do not divide the chunk) and the batch shape
    p = ModelParams(m, l)
    pts = sample_domain_points(p, 200, seed=5)
    keys = ("gamma", "R", "nabla_R", "riemann_frame", "as_check",
            "characteristic")

    def values(q):
        # the jet's tensors through the chunk map, then the entry points
        tensors = FrameJet(q, p)._chunked(
            lambda fr: {"gamma": fr.gamma, "R": fr.R, "nabla_R": fr.nabla_R})
        return dict(tensors, riemann_frame=riemann_frame(q, p),
                    as_check=ambrose_singer_check(q, p),
                    characteristic=parallelism_residuals(q, p))

    alone = [values(q) for q in pts]
    want = {key: np.stack([v[key] for v in alone]) for key in keys}
    for shape in [(1, 7), (33, 7), (200, 7), (4, 50, 7)]:
        n = int(np.prod(shape[:-1]))
        for key, value in values(pts[:n].reshape(shape)).items():
            expect = want[key][:n].reshape(shape[:-1] + want[key].shape[1:])
            assert value.shape == expect.shape, (shape, key)
            assert np.array_equal(value, expect), (shape, key)
    # a single point takes no loop and keeps its shape
    assert alone[7]["riemann_frame"].shape == (7, 7, 7, 7)


@pytest.mark.parametrize("m,l", [(1.0, 1.0), (1.0, 0.0), (-0.5, 1.0),
                                 (0.0, 1.0)])
def test_a_piece_holding_the_origin_gives_each_point_its_own_values(m, l):
    # at u = 0, nabla - S is 0 for every m (and gamma too at l = 0), so the
    # covariant derivatives of the origin alone contract over no span; in
    # a piece with other points they contract over the spans of those
    p = ModelParams(m, l)
    points = sample_domain_points(p, 5, seed=12)
    points[3, 3:] = 0.0  # a point off the origin with u = 0
    pts = np.vstack([np.zeros(7), points])

    def values(q):
        fr = FrameJet(q, p)
        return {"nabla_R": fr.nabla_R, "as_check": ambrose_singer_check(fr, p),
                "characteristic": parallelism_residuals(fr, p)}

    together = values(pts)
    for k, q in enumerate(pts):
        for key, value in values(q).items():
            assert np.array_equal(together[key][k], value), (k, key)


def test_a_jet_chunk_shares_the_tensors_already_built():
    p = ModelParams(1.0, 1.0)
    fr = FrameJet(sample_domain_points(p, 40, seed=2).reshape(2, 20, 7), p)
    C, gamma = fr.C, fr.gamma
    sub = fr._rows(slice(32, 40))
    assert np.shares_memory(sub.C, C) and np.shares_memory(sub.gamma, gamma)
    assert np.array_equal(sub.q, fr.q.reshape(-1, 7)[32:])
    assert np.array_equal(sub.C, C.reshape(40, 7, 7, 7)[32:])
    assert "dC" not in vars(sub)  # not built on fr, so built on first use
    assert not sub.gamma.flags.writeable
    # the curvature too, once fr has built it
    R, nabla_R = fr.R, fr.nabla_R
    sub = fr._rows(slice(32, 40))
    assert np.shares_memory(sub.R, R)
    assert np.shares_memory(sub.nabla_R, nabla_R)
    assert np.array_equal(sub.nabla_R, nabla_R.reshape((40,) + (7,) * 5)[32:])
    # a chunk of a jet gives the same bits as a chunk of points
    assert np.array_equal(riemann_frame(fr, p), riemann_frame(fr.q, p))


class _ChunkError(Exception):
    pass


def test_a_chunk_error_is_raised_in_the_caller():
    # the first failing chunk in chunk order, though a later one fails too
    p = ModelParams(1.0, 1.0)
    jet = FrameJet(sample_domain_points(p, 6 * _CHUNK, seed=3), p)

    def body(fr):
        if fr.rows.start in (2 * _CHUNK, 4 * _CHUNK):
            raise _ChunkError(fr.rows.start)
        return {"R": fr.R}

    with pytest.raises(_ChunkError) as exc:
        jet._chunked(body)
    assert exc.value.args == (2 * _CHUNK,)
    # the pool still serves the next call
    assert np.array_equal(riemann_frame(jet, p), riemann_frame(jet.q, p))


def test_chunks_run_on_two_workers_under_the_callers_error_state():
    p = ModelParams(0.0, 1.0)
    jet = FrameJet(sample_domain_points(p, 8 * _CHUNK, seed=3), p)
    lock, running, seen = threading.Lock(), [0, 0], set()

    def body(fr):
        with lock:
            running[0] += 1
            running[1] = max(running)
            seen.add(threading.current_thread().name)
        time.sleep(0.005)
        with lock:
            running[0] -= 1
        return {"big": np.full(len(fr.q), 1e308) * 10.0}

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            jet._chunked(body)
    with np.errstate(over="ignore"):
        out = jet._chunked(body)["big"]
    assert np.isinf(out).all()
    assert running[1] <= 2
    assert len(seen) == 2 and threading.current_thread().name not in seen


def test_a_chunked_call_inside_a_body_is_refused():
    # a body's own chunked call would wait on the pool that runs the body:
    # it raises in the worker, and the error reaches the caller
    p = ModelParams(1.0, 1.0)
    pts = sample_domain_points(p, 3 * _CHUNK, seed=4)
    jet, got, want = FrameJet(pts, p), [], riemann_frame(pts, p)

    def body(fr):
        return {"R": riemann_frame(pts, p)[fr.rows]}

    def call():
        try:
            jet._chunked(body)
        except RuntimeError as exc:
            got.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive()
    assert len(got) == 1 and "chunk-pool worker" in str(got[0])
    # the pool still serves the next call
    assert np.array_equal(riemann_frame(pts, p), want)


def test_callers_on_more_threads_than_cores_share_the_pool():
    # each caller's chunks land in its own rows, with the threads switched
    # as often as the interpreter allows
    p = ModelParams(1.0, 1.0)
    sets = [sample_domain_points(p, 5 * _CHUNK - 3, seed=s) for s in range(4)]
    want = [ambrose_singer_check(q, p) for q in sets]
    got = [None] * len(sets)

    def call(k):
        for _ in range(3):
            got[k] = ambrose_singer_check(sets[k], p)
            if not np.array_equal(got[k], want[k]):
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(k,), daemon=True)
                   for k in range(len(sets))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _run_python(*argv):
    src = str(pathlib.Path(ebcv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, text=True,
                          capture_output=True, timeout=300)


def test_import_starts_no_thread():
    out = _run_python("-c", "import threading\n"
                      "n = threading.active_count()\n"
                      "import ebcv, ebcv.cli, ebcv.verify\n"
                      "print(threading.active_count() - n)")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "0\n"


def test_verify_overflow_in_the_workers_warns_nothing():
    # the sample pass's error state holds in the workers that run it
    # at (0, 1e154) R is finite, nabla R is not
    out = _run_python("-W", "error", "-m", "ebcv.cli", "verify",
                      "--m", "0", "--l", "1e154")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "RuntimeWarning" not in out.stderr
    assert out.stderr.count("\n") == 1, out.stderr


def _traced_peak(fn, *args) -> tuple[int, int]:
    """Peak traced allocation of fn(*args) and the size of its output."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn", [riemann_frame, ambrose_singer_check])
def test_memory_is_bounded_by_the_chunk(fn):
    # beyond its output a call holds the temporaries of the two chunks in
    # flight at a time.  The reference is twice a one-chunk call, which
    # runs in the calling thread: a two-chunk call holds both chunks' peaks
    # at once only when its two workers happen to reach them together
    p = ModelParams(1.0, 1.0)
    pts = sample_domain_points(p, 1000, seed=9)
    peak_chunk, _ = _traced_peak(fn, pts[:_CHUNK], p)
    peak_all, out_bytes = _traced_peak(fn, pts, p)
    assert peak_all <= 1.5 * 2 * peak_chunk + out_bytes, (peak_all,
                                                          peak_chunk)
