import dataclasses
import itertools
import math
import platform
import sys
import weakref

import numpy as np
import pytest

from rtmcloud.survey import ShotGatherPlan, VelocityModel2D, make_layered_model
from rtmcloud.wavekernel import (
    CFLViolationError,
    NumericalBlowupError,
    adjoint_dot_test,
    default_dt,
    forward_model,
    ricker,
    rtm_shot_image,
    stable_dt,
)
from rtmcloud.wavekernel import _backend, _stencil_py, solver


class TestRicker:
    def test_peak_amplitude_one_at_expected_time(self):
        w = ricker(15.0, 0.002, 500)
        assert w.samples[50] == 1.0  # t = 1.5/15 = 0.1 s = sample 50
        assert np.abs(w.samples).max() == 1.0

    def test_even_symmetry_about_peak(self):
        w = ricker(15.0, 0.002, 500)
        peak = 50
        for k in range(1, 40):
            # mirrored to rounding of the time axis (dt is not binary-exact)
            assert w.samples[peak + k] == pytest.approx(w.samples[peak - k], rel=1e-12, abs=1e-13)

    def test_two_sign_changes_near_peak(self):
        w = ricker(15.0, 0.002, 500)
        t = np.arange(500) * 0.002
        window = w.samples[(t >= 0.05) & (t <= 0.15)]  # tau in [-0.05, 0.05]
        changes = int((np.sign(window[1:]) != np.sign(window[:-1])).sum())
        assert changes == 2

    def test_too_short_span_rejected(self):
        with pytest.raises(ValueError):
            ricker(15.0, 0.002, 30)  # 0.06 s < 2/15 s


def frames_for(model, wavelet, nt):
    """A buffer for the source wavefield ``forward_model`` stores."""
    return np.empty(solver.frame_layout(model, wavelet, nt)[1], dtype=np.float32)


def small_setup(nz=61, nx=61, v=1500.0, record_time=0.8):
    model = make_layered_model(nz, nx, 10.0, 10.0, [v])
    dt = default_dt(model)
    nt = int(round(record_time / dt)) + 1
    wavelet = ricker(15.0, dt, nt)
    receivers = tuple((60.0 + 20.0 * i, 30.0) for i in range(16))
    source = ((nx // 2) * 10.0, (nz - 4) * 10.0)
    return model, source, receivers, wavelet, dt, nt


class TestPropagators:
    def test_shared_propagators_give_the_same_bits(self):
        # two models on one grid, one mask and one set of fields between
        # them, against a propagator built in each call
        model, source, receivers, wavelet, dt, nt = small_setup()
        v = model.v.copy()
        v[28:33, 28:33] *= 1.1
        other = dataclasses.replace(model, v=v)
        shared = solver.propagators((model, other), dt)
        assert shared[0].mask is shared[1].mask and shared[0].fields() is shared[1].fields()
        for m, prop in ((model, shared[0]), (other, shared[1]), (model, shared[0])):
            own = forward_model(m, source, wavelet, receivers, dt, nt)
            on = forward_model(m, source, wavelet, receivers, dt, nt, propagator=prop)
            assert np.abs(own.traces).max() > 0
            assert_same_bytes(own.traces, on.traces, "traces")

    def test_propagator_of_another_model_or_dt_refused(self):
        model, source, receivers, wavelet, dt, nt = small_setup()
        for prop in (solver.propagators((dataclasses.replace(model),), dt)[0],
                     solver.propagators((model,), dt / 2)[0]):
            with pytest.raises(ValueError, match="another model or dt"):
                forward_model(model, source, wavelet, receivers, dt, nt, propagator=prop)

    def test_grids_of_two_shapes_share_nothing(self):
        model, dt = small_setup()[0], small_setup()[4]
        with pytest.raises(ValueError, match="cannot share"):
            solver.propagators((model, small_setup(nz=41)[0]), dt)


class TestForwardModel:
    def test_zero_wavelet_gives_zero_traces(self):
        model, source, receivers, wavelet, dt, nt = small_setup()
        silent = dataclasses.replace(wavelet, samples=np.zeros_like(wavelet.samples))
        rec = forward_model(model, source, silent, receivers, dt, nt)
        assert (rec.traces == 0).all()

    def test_doubling_amplitude_doubles_traces_exactly(self):
        model, source, receivers, wavelet, dt, nt = small_setup()
        rec1 = forward_model(model, source, wavelet, receivers, dt, nt)
        rec2 = forward_model(model, source, wavelet.scaled(2.0), receivers, dt, nt)
        np.testing.assert_array_equal(rec2.traces, 2.0 * rec1.traces)

    def test_first_arrival_time(self):
        # uniform 1500 m/s, receiver 600 m from the source: direct arrival at
        # 0.4 s plus the 0.1 s wavelet peak delay, +/- two periods
        model = make_layered_model(121, 121, 10.0, 10.0, [1500.0])
        dt = default_dt(model)
        nt = int(round(1.0 / dt)) + 1
        wavelet = ricker(15.0, dt, nt)
        source = (250.0, 600.0)
        receivers = ((850.0, 600.0),)
        rec = forward_model(model, source, wavelet, receivers, dt, nt)
        trace = np.abs(rec.traces[:, 0])
        first = np.nonzero(trace > 0.01 * trace.max())[0][0] * dt
        period = 1.0 / 15.0
        assert 0.5 - 2 * period <= first <= 0.5 + 2 * period

    def test_cfl_violation_reports_stable_dt(self):
        model, source, receivers, wavelet, dt, nt = small_setup()
        bad_dt = stable_dt(model) * 1.5
        with pytest.raises(CFLViolationError) as err:
            forward_model(model, source, dataclasses.replace(wavelet, dt=bad_dt),
                          receivers, bad_dt, nt)
        assert err.value.stable_dt == pytest.approx(stable_dt(model))
        assert f"{stable_dt(model):g}" in str(err.value)

    def test_dt_past_the_scheme_limit_refused_before_any_step(self):
        # 0.97 x the bound stable_dt gave before it was derived from the
        # stencil, 0.9*h/(sqrt(2)*v): a Courant number of 0.617, past the
        # scheme's 0.612, which that bound passed and which then blew up.
        model = make_layered_model(61, 61, 10.0, 10.0, [1500.0])
        dt = 0.97 * 0.9 * 10.0 / (math.sqrt(2.0) * 1500.0)
        nt = 400
        wavelet = ricker(15.0, dt, nt)
        frames = np.full(solver.frame_layout(model, wavelet, nt)[1], np.nan, dtype=np.float32)
        with pytest.raises(CFLViolationError):
            forward_model(model, (300.0, 300.0), wavelet, ((100.0, 100.0),), dt, nt,
                          frames=frames)
        assert np.isnan(frames).all()  # no step wrote a frame

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_blowup_threshold_is_the_derived_limit(self, monkeypatch, factor):
        # stable_dt / CFL_SAFETY is where the scheme starts to blow up, to
        # within 1%: run 1% either side of it, past the CFL check.
        model = make_layered_model(61, 61, 10.0, 10.0, [1500.0])
        dt = factor * stable_dt(model) / solver.CFL_SAFETY
        monkeypatch.setattr(solver, "stable_dt", lambda m: math.inf)
        nt = 4000
        wavelet = ricker(15.0, dt, nt)
        run = lambda: forward_model(model, (300.0, 300.0), wavelet, ((100.0, 100.0),), dt, nt)
        if factor > 1:
            with pytest.raises(NumericalBlowupError):
                run()
        else:
            assert np.isfinite(run().traces).all()

    def test_default_dt_keeps_its_courant_number(self):
        # every default image was made with this step: 0.72/sqrt(2) = 0.509
        for v, h in ((1500.0, 10.0), (2500.0, 7.5)):
            model = make_layered_model(21, 25, h, h, [v])
            assert default_dt(model) == 0.8 * (0.9 * h / (math.sqrt(2.0) * v))
            assert default_dt(model) < stable_dt(model)

    def test_stable_for_2000_steps(self):
        model = make_layered_model(61, 61, 10. , 10.0, [1500.0])
        dt = default_dt(model)
        nt = 2000
        wavelet = ricker(15.0, dt, nt)
        frames = frames_for(model, wavelet, nt)
        rec = forward_model(model, (300.0, 120.0), wavelet, ((100.0, 100.0),), dt, nt,
                            frames=frames)
        assert np.isfinite(rec.traces).all()
        assert np.abs(frames).max() < 1e6

    def test_bitwise_deterministic(self):
        model, source, receivers, wavelet, dt, nt = small_setup()
        frames1, frames2 = frames_for(model, wavelet, nt), frames_for(model, wavelet, nt)
        rec1 = forward_model(model, source, wavelet, receivers, dt, nt, frames=frames1)
        rec2 = forward_model(model, source, wavelet, receivers, dt, nt, frames=frames2)
        np.testing.assert_array_equal(rec1.traces, rec2.traces)
        np.testing.assert_array_equal(frames1, frames2)

    def test_position_outside_extent_rejected(self):
        model, source, receivers, wavelet, dt, nt = small_setup()
        with pytest.raises(ValueError):
            forward_model(model, (-5.0, 100.0), wavelet, receivers, dt, nt)

    def test_wavefield_stored_every_step(self):
        # every step the image reads: those after the source dies out
        model, source, receivers, wavelet, dt, nt = small_setup(record_time=0.4)
        first = solver._source_active_until(wavelet.samples, nt) + 1
        assert 0 < first < nt
        assert solver.frame_layout(model, wavelet, nt) == (first, (nt - first, model.nz, model.nx))

    def test_frames_hold_the_steps_from_first_frame(self):
        # against every step's frame, stored by a window told to skip none
        model, source, receivers, wavelet, dt, nt = small_setup(record_time=0.4)
        frames = frames_for(model, wavelet, nt)
        forward_model(model, source, wavelet, receivers, dt, nt, frames=frames)
        first, _ = solver.frame_layout(model, wavelet, nt)
        every = np.empty((nt, model.nz, model.nx), dtype=np.float32)
        solver._run_forward(solver._Propagator(model, dt), source, wavelet.samples, receivers,
                            nt, every, 0)
        assert np.abs(frames).max() > 0
        np.testing.assert_array_equal(frames, every[first:])

    def test_nan_filled_buffer_is_fully_written(self):
        # a row the forward window missed would keep its NaN
        model, source, receivers, wavelet, dt, nt = small_setup()
        zeros = np.zeros_like(frames_for(model, wavelet, nt))
        nans = np.full_like(zeros, np.nan)
        rec = forward_model(model, source, wavelet, receivers, dt, nt, frames=zeros)
        rec_nan = forward_model(model, source, wavelet, receivers, dt, nt, frames=nans)
        assert np.abs(zeros).max() > 0
        np.testing.assert_array_equal(nans, zeros)
        np.testing.assert_array_equal(rec_nan.traces, rec.traces)
        np.testing.assert_array_equal(
            forward_model(model, source, wavelet, receivers, dt, nt).traces, rec.traces)


@pytest.mark.parametrize("bad", [
    lambda f: np.empty((f.shape[0] + 1, *f.shape[1:]), dtype=np.float32),
    lambda f: np.empty((f.shape[0], f.shape[1] - 1, f.shape[2]), dtype=np.float32),
    lambda f: np.empty(f.shape, dtype=np.float64),
    lambda f: np.empty((*f.shape[:2], 2 * f.shape[2]), dtype=np.float32)[:, :, ::2],
    lambda f: np.broadcast_to(np.empty(f.shape[1:], dtype=np.float32), f.shape),  # nor contiguous
    lambda f: np.empty(f.shape, dtype=np.float32).tolist(),
], ids=["rows", "nz", "float64", "non_contiguous", "read_only", "not_an_array"])
@pytest.mark.parametrize("call", ["forward_model", "rtm_shot_image"])
def test_bad_frames_rejected(monkeypatch, call, bad):
    model, source, receivers, wavelet, dt, nt = small_setup(record_time=0.4)
    frames = frames_for(model, wavelet, nt)
    rec = forward_model(model, source, wavelet, receivers, dt, nt, frames=frames)
    out = bad(frames)
    before = np.array(out, copy=True)
    # no kernels: stepping anything would raise AttributeError instead
    monkeypatch.setattr(solver, "impl", None)
    with pytest.raises(ValueError, match="frames"):
        if call == "forward_model":
            forward_model(model, source, wavelet, receivers, dt, nt, frames=out)
        else:
            rtm_shot_image(model, ShotGatherPlan(0, source, receivers), rec, wavelet, frames=out)
    np.testing.assert_array_equal(np.asarray(out), before)


def scatterer_case(nz=101, nx=101, sc=(50, 51), rel=0.10):
    model = make_layered_model(nz, nx, 10.0, 10.0, [1500.0])
    v = model.v.copy()
    ci, cj = sc
    v[ci - 1 : ci + 2, cj - 1 : cj + 2] *= 1.0 + rel
    true_model = VelocityModel2D(model.nz, model.nx, model.dz, model.dx, model.oz, model.ox, v)
    receivers = tuple((20.0 + 960.0 * i / 47.0, 20.0) for i in range(48))
    plan = ShotGatherPlan(0, (500.0, 980.0), receivers)
    dt = min(default_dt(model), default_dt(true_model))
    nt = int(round(1.4 / dt)) + 1
    wavelet = ricker(15.0, dt, nt)
    rec_true = forward_model(true_model, plan.source, wavelet, plan.receivers, dt, nt)
    frames = frames_for(model, wavelet, nt)
    rec_bg = forward_model(model, plan.source, wavelet, plan.receivers, dt, nt, frames=frames)
    observed = dataclasses.replace(rec_true, traces=rec_true.traces - rec_bg.traces)
    return model, plan, observed, wavelet, frames, sc


class TestRtmShotImage:
    def test_zero_data_gives_zero_image(self):
        model, source, receivers, wavelet, dt, nt = small_setup()
        plan = ShotGatherPlan(0, source, receivers)
        frames = frames_for(model, wavelet, nt)
        rec = forward_model(model, source, wavelet, receivers, dt, nt, frames=frames)
        zero = dataclasses.replace(rec, traces=np.zeros_like(rec.traces))
        image = rtm_shot_image(model, plan, zero, wavelet, frames=frames)
        assert (image.values == 0).all()

    def test_linear_in_observed_data(self):
        model, source, receivers, wavelet, dt, nt = small_setup()
        plan = ShotGatherPlan(0, source, receivers)
        frames = frames_for(model, wavelet, nt)
        rec = forward_model(model, source, wavelet, receivers, dt, nt, frames=frames)
        img1 = rtm_shot_image(model, plan, rec, wavelet, frames=frames)
        img2 = rtm_shot_image(model, plan, rec.scaled(2.0), wavelet, frames=frames)
        np.testing.assert_array_equal(img2.values, 2.0 * img1.values)

    def test_point_scatterer_focus(self):
        model, plan, observed, wavelet, frames, (ci, cj) = scatterer_case()
        image = rtm_shot_image(model, plan, observed, wavelet, frames=frames)
        iz, ix = np.unravel_index(np.argmax(np.abs(image.values)), image.values.shape)
        assert abs(iz - ci) <= 3 and abs(ix - cj) <= 3

    def test_geometry_mismatch_rejected(self):
        model, source, receivers, wavelet, dt, nt = small_setup()
        plan = ShotGatherPlan(0, source, receivers[:-1])
        frames = frames_for(model, wavelet, nt)
        rec = forward_model(model, source, wavelet, receivers, dt, nt, frames=frames)
        with pytest.raises(ValueError):
            rtm_shot_image(model, plan, rec, wavelet, frames=frames)

    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["nt", "nz", "nx"])
    def test_frames_shape_mismatch_rejected(self, monkeypatch, axis):
        model, source, receivers, wavelet, dt, nt = small_setup()
        plan = ShotGatherPlan(0, source, receivers)
        frames = frames_for(model, wavelet, nt)
        rec = forward_model(model, source, wavelet, receivers, dt, nt, frames=frames)
        shape = list(frames.shape)
        shape[axis] -= 1
        # no kernels: propagating anything would raise AttributeError instead
        monkeypatch.setattr(solver, "impl", None)
        with pytest.raises(ValueError, match="frames shape"):
            rtm_shot_image(model, plan, rec, wavelet, frames=np.zeros(shape))

    @pytest.mark.parametrize("dtype", [np.float64, np.float16])
    def test_frames_of_another_dtype_rejected(self, monkeypatch, dtype):
        # never converted: a copy would be a second wavefield-sized buffer
        model, source, receivers, wavelet, dt, nt = small_setup()
        plan = ShotGatherPlan(0, source, receivers)
        frames = frames_for(model, wavelet, nt)
        rec = forward_model(model, source, wavelet, receivers, dt, nt, frames=frames)
        monkeypatch.setattr(solver, "impl", None)
        with pytest.raises(ValueError, match="frames must be a C-contiguous 3-D float32 array"):
            rtm_shot_image(model, plan, rec, wavelet, frames=frames.astype(dtype))

    def test_float32_frames_image_matches_float64_reference(self):
        # The reference steps one window per step and correlates float64
        # copies of each forward frame with each adjoint field, in the
        # kernels' order: it differs from the image only by the frames'
        # rounding to float32.
        model, source, receivers, wavelet, dt, nt = small_setup(record_time=0.6)
        v = model.v.copy()
        v[28:33, 28:33] *= 1.1
        true_model = dataclasses.replace(model, v=v)
        plan = ShotGatherPlan(0, source, receivers)
        rec_true = forward_model(true_model, source, wavelet, receivers, dt, nt)
        frames = frames_for(model, wavelet, nt)
        rec_bg = forward_model(model, source, wavelet, receivers, dt, nt, frames=frames)
        observed = dataclasses.replace(rec_true, traces=rec_true.traces - rec_bg.traces)
        image = rtm_shot_image(model, plan, observed, wavelet, frames=frames).values

        first, shape = solver.frame_layout(model, wavelet, nt)
        prop = solver._Propagator(model, dt)
        fwd = _stencil_py.Plan(nt, prop.fields(), prop.coefficients, prop.source_cells(source),
                               prop.interp_cells(receivers), q=wavelet.samples, pad=prop.pad)
        interior = np.s_[prop.pad : prop.pad + model.nz, prop.pad : prop.pad + model.nx]
        ref_frames = np.empty(shape)
        for n in range(nt):
            solver.impl.forward_window(fwd, n, n + 1)
            if n >= first:
                ref_frames[n - first] = fwd.fields[1][interior]  # step n's field
        adj = _stencil_py.Plan(nt, prop.fields(), prop.coefficients, (None, None),
                               prop.interp_cells(receivers), data=observed.traces)
        ref = np.zeros((model.nz, model.nx))
        for n in reversed(range(first, nt)):
            solver.impl.adjoint_window(adj, n, n + 1)
            ref += ref_frames[n - first] * adj.fields[1][interior]

        assert np.abs(ref).max() > 0
        assert np.linalg.norm(image - ref) <= 1e-6 * np.linalg.norm(ref)
        np.testing.assert_array_equal(frames, ref_frames.astype(np.float32))

    def test_source_active_to_the_last_step_gives_zero_image(self):
        # first_frame == nt: no frame is stored and nothing is correlated
        model, source, receivers, wavelet, dt, nt = small_setup()
        plan = ShotGatherPlan(0, source, receivers)
        constant = dataclasses.replace(wavelet, samples=np.ones(nt))
        frames = frames_for(model, constant, nt)
        rec = forward_model(model, source, constant, receivers, dt, nt, frames=frames)
        assert solver.frame_layout(model, constant, nt)[0] == nt
        assert frames.shape == (0, model.nz, model.nx)
        assert np.abs(rec.traces).max() > 0
        image = rtm_shot_image(model, plan, rec, constant, frames=frames)
        assert not image.values.any()


class TestAdjoint:
    def test_dot_test_small_grid(self):
        model = make_layered_model(101, 101, 10.0, 10.0, [1500.0, 2500.0])
        plan = ShotGatherPlan(0, (500.0, 960.0), tuple((100.0 + 80.0 * i, 20.0) for i in range(8)))
        for seed in (0, 1):
            assert adjoint_dot_test(model, plan, wavelet_length=400, seed=seed) < 1e-10

    def test_forward_side_positive_for_matching_data(self):
        model, source, receivers, wavelet, dt, nt = small_setup()
        rec = forward_model(model, source, wavelet, receivers, dt, nt)
        assert float(np.vdot(rec.traces, rec.traces)) > 0

    def test_grid_size_limit(self):
        model = make_layered_model(205, 101, 10.0, 10.0, [1500.0])
        plan = ShotGatherPlan(0, (500.0, 960.0), ((100.0, 20.0),))
        with pytest.raises(ValueError):
            adjoint_dot_test(model, plan, wavelet_length=100, seed=0)


class TestSponge:
    def test_mask_zero_on_halo_one_inside(self, uniform_model_61):
        prop = solver._Propagator(uniform_model_61, default_dt(uniform_model_61))
        halo, pad = solver.HALO, prop.pad
        assert pad == solver.SPONGE_CELLS + halo
        mask = prop.mask
        rim = np.ones(mask.shape, dtype=bool)
        rim[halo:-halo, halo:-halo] = False
        assert (mask[rim] == 0.0).all()
        assert (mask[pad:-pad, pad:-pad] == 1.0).all()
        # the deepest sponge cell of one axis damps by exp(-SPONGE_COEFF); a
        # corner, deepest along both, by its square
        edge = mask[mask.shape[0] // 2]
        assert edge[edge > 0].min() == pytest.approx(math.exp(-solver.SPONGE_COEFF), rel=1e-15)
        assert mask[mask > 0].min() == pytest.approx(math.exp(-2 * solver.SPONGE_COEFF),
                                                     rel=1e-15)

    @staticmethod
    def shot_traces(extra):
        """One shot at (510, 500) m and 10 receivers at z = 100 m of the default
        101² model, 1.4 s long, with ``extra`` more cells of model on each side."""
        n = 101 + 2 * extra
        model = make_layered_model(n, n, 10.0, 10.0, [1500.0])
        dt = default_dt(model)
        nt = int(round(1.4 / dt)) + 1
        off = 10.0 * extra
        receivers = [(off + 50.0 + 100.0 * i, off + 100.0) for i in range(10)]
        rec = forward_model(model, (off + 510.0, off + 500.0), ricker(15.0, dt, nt),
                            receivers, dt, nt)
        return rec.traces

    def test_boundary_reflection_below_5_percent(self):
        # 120 more cells each side put the rim 1.2 km further out: its echo
        # cannot reach a receiver within the record, so the difference is
        # what the boundary of the default grid sends back.
        traces, reference = self.shot_traces(0), self.shot_traces(120)
        assert np.abs(traces - reference).max() / np.abs(reference).max() < 0.05


@pytest.fixture(scope="session")
def c_stencil():
    """The C kernels, from the loader every run uses; skips only with no C compiler."""
    module, reason = _backend.load_stencil()
    if reason == _backend.NO_COMPILER:
        pytest.skip(reason)
    assert module is not None, reason
    return module


SERIES = ("q", "traces", "data", "q_star", "frames", "image")


def window_case(nt=150, seed=3, shape=(20, 24), noisy=False, first=None, src_rows=None,
                rec_rows=None, src_col=None):
    """Plan and window arguments on a small model, forward and adjoint, every
    output on; ``make_plan`` builds a plan from either and ``n0``, ``n1`` are
    the window [0, nt).

    Receivers 0 and 1 lie in the same cell with different weights and
    receiver 2 sits exactly on receiver 0, so injection adds into shared
    cells and its order shows.  ``shape`` is the model's (nz, nx); the
    fields are ``2 * prop.pad`` cells larger each way.  ``noisy`` starts
    every interior cell of the fields at a random value, so every cell is
    live from step 0.
    Both windows take ``first_frame = first``, by default ``nt // 3 + 1``,
    so the frames hold the steps from there on.  ``src_rows`` (top, bottom)
    puts the source's cells in those rows of the padded grid, halo rows
    included, in columns ``src_col`` and ``src_col + 1`` (by default the
    middle two), and ``rec_rows`` adds one receiver over rows (r, r + 1) for
    each r in it, every one in the same two columns.
    """
    model = make_layered_model(*shape, 10.0, 10.0, [1500.0, 2200.0])
    prop = solver._Propagator(model, default_dt(model))
    receivers = ((50.0, 30.0), (55.0, 34.0), (50.0, 30.0), (180.0, 120.0))
    rng = np.random.default_rng(seed)
    src_idx, src_w = prop.source_cells((110.0, 90.0))
    rec_idx, rec_w = prop.interp_cells(receivers)

    def cells(top, bottom, col):
        return np.array([[top * prop.ld + col, top * prop.ld + col + 1,
                          bottom * prop.ld + col, bottom * prop.ld + col + 1]],
                        dtype=np.intp)

    if src_rows is not None:
        src_idx = cells(*src_rows, prop.nx_pad // 2 if src_col is None else src_col)
        src_w = rng.uniform(0.01, 0.05, src_idx.shape)
    if rec_rows is not None:
        extra = np.concatenate([cells(r, r + 1, 40) for r in rec_rows])
        rec_idx = np.concatenate([rec_idx, extra])
        rec_w = np.concatenate([rec_w, rng.uniform(0.1, 0.9, extra.shape)])
    receivers = range(len(rec_idx))
    first = nt // 3 + 1 if first is None else first
    common = dict(nt=nt, n0=0, n1=nt, vdt2=prop.vdt2, mask=prop.mask, inv_dz2=prop.inv_dz2,
                  inv_dx2=prop.inv_dx2, src_idx=src_idx, src_w=src_w, rec_idx=rec_idx,
                  rec_w=rec_w, first_frame=first, pad=prop.pad)
    # each plan its own fields: prop.fields() would hand both the same buffers
    fields = lambda: dict(zip(("prv", "cur", "nxt"), (prop.grid() for _ in range(3))))  # noqa: E731
    forward = dict(common, **fields(),
                   q=rng.standard_normal(nt), traces=np.zeros((nt, len(receivers))),
                   frames=np.zeros((nt - first, model.nz, model.nx), dtype=np.float32))
    adjoint = dict(common, **fields(),
                   data=rng.standard_normal((nt, len(receivers))), q_star=np.zeros(nt),
                   frames=rng.standard_normal((nt - first, model.nz, model.nx),
                                              dtype=np.float32),
                   image=np.zeros((model.nz, model.nx)))
    if noisy:
        for f in (forward["prv"], forward["cur"], adjoint["prv"], adjoint["cur"]):
            f[2:-2, 2:-2] = rng.standard_normal(f[2:-2, 2:-2].shape) * 1e-3
    return forward, adjoint


def make_plan(a):
    """The plan of a ``window_case`` dict: every key but ``n0`` and ``n1``."""
    return _stencil_py.Plan(a["nt"], (a["prv"], a["cur"], a["nxt"]),
                            (a["vdt2"], a["mask"], a["inv_dz2"], a["inv_dx2"]),
                            (a["src_idx"], a["src_w"]), (a["rec_idx"], a["rec_w"]),
                            **{k: a[k] for k in SERIES if k in a}, first_frame=a["first_frame"],
                            pad=a["pad"])


def run_windows(impl, size=None, nt=150, cuts=None, **case):
    """A forward then an adjoint propagation over [0, nt), one plan each, in
    windows of ``size`` steps (one window when None), or cut at ``cuts``, the
    window boundaries from 0 to nt in order; every field and output
    afterwards.  ``case`` goes to ``window_case``."""
    forward, adjoint = window_case(nt, **case)
    cuts = cuts or [*range(0, nt, size or nt), nt]
    out = {}
    for kind, args, order in (("forward", forward, cuts), ("adjoint", adjoint, cuts[::-1])):
        window, plan = getattr(impl, f"{kind}_window"), make_plan(args)
        for a, b in zip(order, order[1:]):
            window(plan, min(a, b), max(a, b))
        out.update({f"{kind}.{role}": f for role, f in zip(("prv", "cur", "nxt"), plan.fields)})
    out.update(traces=forward["traces"], frames=forward["frames"], q_star=adjoint["q_star"],
               image=adjoint["image"])
    return out


def _truncated(key):
    return key, lambda a: a[key][:-1].copy()


def _last_row_cut(a):
    """The mask in rows of its stride, in a buffer that ends with the last
    row's nx values: the C rows' whole blocks would run past it."""
    (nz, nx), (row, _) = a["mask"].shape, a["mask"].strides
    cut = np.ndarray((nz, nx), buffer=np.zeros((nz - 1) * row // 8 + nx), strides=(row, 8))
    cut[:] = a["mask"]
    return cut


# One argument made bad, per case: a plan argument, which building the plan
# refuses, or a window bound, which both backends' windows refuse.
BAD_WINDOW_ARGS = pytest.mark.parametrize(
    "key, bad",
    [
        ("mask", lambda a: a["mask"].astype(np.float32)),
        ("mask", lambda a: np.repeat(a["mask"], 2, axis=1)[:, ::2]),
        ("mask", lambda a: a["mask"][:, :-1].copy()),
        ("mask", lambda a: a["mask"].copy()),
        ("mask", _last_row_cut),
        ("nxt", lambda a: a["cur"]),
        ("rec_idx", lambda a: a["rec_idx"].astype(np.int32)),
        # row nz, column 0: the first index past the grid's rows, ld apart
        ("rec_idx", lambda a: np.where(a["rec_idx"] == a["rec_idx"].max(),
                                       len(a["mask"]) * a["mask"].strides[0] // 8,
                                       a["rec_idx"])),
        # row 0, column nx: past the end of a row, in the columns up to ld
        ("src_idx", lambda a: a["src_idx"] - a["src_idx"].min() + a["mask"].shape[1]),
        ("src_idx", lambda a: a["src_idx"] - a["src_idx"].max() - 1),
        _truncated("q"),
        _truncated("data"),
        _truncated("traces"),
        _truncated("frames"),
        _truncated("q_star"),
        ("n0", lambda a: a["n1"] + 1),
        ("n1", lambda a: a["nt"] + 1),
        ("traces", lambda a: np.broadcast_to(a["traces"], a["traces"].shape)),
        ("image", lambda a: None),
        ("image", lambda a: a["image"][:, :-1].copy()),
        ("pad", lambda a: a["mask"].shape[0]),
        ("n0", lambda a: 0.0),
        ("first_frame", lambda a: None),
        ("first_frame", lambda a: float(a["first_frame"])),
        ("first_frame", lambda a: -1),
        ("inv_dz2", lambda a: None),
        ("inv_dx2", lambda a: str(a["inv_dx2"])),
    ],
    # first_frame replaced image_skip_until (first_frame - 1): "skip" ids are its cases
    ids=["float32", "non_contiguous", "shape_mismatch", "stride_short", "last_row_cut",
         "aliased_fields", "index_int32",
         "cell_past_grid", "cell_in_dead_column", "cell_negative", "n1_past_q", "n1_past_data",
         "n1_past_traces", "n1_past_frames", "n1_past_q_star", "n0_past_n1", "n1_past_plan",
         "read_only_traces", "frames_without_image", "image_not_frame_shaped",
         "interior_past_grid", "n0_float", "skip_none", "skip_float", "skip_negative",
         "inv_dz2_none", "inv_dx2_str"],
)


def assert_rejected(impl, key, bad):
    """The case is refused with ValueError, nothing stepped: a bad plan
    argument when the plan is built, a bad window bound by both of
    ``impl``'s windows on a built plan."""
    for kind, args in zip(("forward", "adjoint"), window_case(nt=8)):
        if key not in args:
            continue
        # a stepped field would differ from this random state
        for name in ("prv", "cur", "nxt"):
            args[name][2:-2, 2:-2] = np.random.default_rng(1).standard_normal(
                args[name][2:-2, 2:-2].shape)
        args[key] = bad(args)
        plan = make_plan(args) if key in ("n0", "n1") else None
        arrays = [v for v in args.values() if isinstance(v, np.ndarray)]
        before = [a.copy() for a in arrays]
        refs = [sys.getrefcount(a) for a in arrays]
        with pytest.raises(ValueError):
            if plan is None:
                make_plan(args)
            else:
                getattr(impl, f"{kind}_window")(plan, args["n0"], args["n1"])
        # the failed call holds no reference to any argument
        assert [sys.getrefcount(a) for a in arrays] == refs, kind
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)  # nothing stepped


class TestBackendParity:
    """The NumPy fallback and the C kernels implement one window contract."""

    @pytest.mark.parametrize("kind", ["forward", "adjoint"])
    def test_window_matches(self, c_stencil, kind):
        c, py = run_windows(c_stencil), run_windows(_stencil_py)
        outputs = [k for k in c if k.startswith(kind)] + (
            ["traces", "frames"] if kind == "forward" else ["q_star", "image"])
        for k in outputs:
            assert np.abs(c[k]).max() > 0, k
            np.testing.assert_array_equal(c[k], py[k], err_msg=k)

    @pytest.mark.parametrize("size", [1, 7, 128])
    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_split_windows_step_as_one(self, c_stencil, backend, size):
        # The replay property: any cut of [0, nt) gives the same bits.
        impl = c_stencil if backend == "c" else _stencil_py
        whole, split = run_windows(impl), run_windows(impl, size)
        for k in whole:
            np.testing.assert_array_equal(whole[k], split[k], err_msg=k)

    def test_shot_image_matches(self, c_stencil, monkeypatch):
        model, source, receivers, wavelet, dt, nt = small_setup()
        plan = ShotGatherPlan(0, source, receivers)
        images = []
        for impl in (c_stencil, _stencil_py):
            monkeypatch.setattr(solver, "impl", impl)
            frames = frames_for(model, wavelet, nt)  # each backend's own forward frames
            rec = forward_model(model, source, wavelet, receivers, dt, nt, frames=frames)
            images.append(rtm_shot_image(model, plan, rec, wavelet, frames=frames).values)
        assert np.abs(images[1]).max() > 0
        np.testing.assert_array_equal(images[0], images[1])

    @pytest.mark.parametrize("first", [-2**70, 2**70], ids=["below", "above"])
    def test_image_skip_past_ssize_t(self, c_stencil, first):
        # ctypes would wrap such a first_frame; a plan refuses it below zero
        # and clamps it to nt above: no frame stored, nothing correlated
        outputs = []
        for impl in (c_stencil, _stencil_py):
            for kind, args in zip(("forward", "adjoint"), window_case(nt=8)):
                args["first_frame"] = first
                if first < 0:
                    with pytest.raises(ValueError, match="first_frame"):
                        make_plan(args)
                else:
                    getattr(impl, f"{kind}_window")(make_plan(args), 0, 8)
                    assert np.abs(args["cur"]).max() > 0  # it did step
                outputs.append(args["frames" if kind == "forward" else "image"])
        assert not any(o.any() for o in outputs)

    def test_dispatch_off_build_gives_the_same_bits(self, c_stencil, tmp_path):
        # The copy the loader bound, whichever CPU level it is for, against a
        # second build of the same source with no clones: the baseline copy.
        plain = str(tmp_path / "plain.so")
        assert _backend._compile(plain, _backend.CFLAGS + " -DDISPATCH=") is None
        baseline = _backend.Kernel(plain)
        assert baseline.isa == "default"
        # a 301 x 301 padded grid, all cells live
        n = 301 - 2 * (solver.SPONGE_CELLS + solver.HALO)
        case = dict(nt=40, shape=(n, n), noisy=True)
        bound, base = run_windows(c_stencil, **case), run_windows(baseline, **case)
        assert bound["forward.cur"].shape == (301, 301)
        for k in bound:
            assert np.abs(bound[k]).max() > 0, k
            np.testing.assert_array_equal(bound[k], base[k], err_msg=k)

    @pytest.mark.skipif(sys.platform != "linux" or platform.machine() != "x86_64",
                        reason="the clones are built for x86-64 Linux only")
    def test_loaded_isa_is_a_listed_level(self, c_stencil):
        assert c_stencil.isa in ("x86-64-v4", "x86-64-v3", "default")

    def test_plan_keeps_every_array(self):
        # the struct holds their addresses: they must outlive the caller's references
        cases = window_case(nt=8)
        plans = [make_plan(args) for args in cases]
        kept = [weakref.ref(v) for args in cases for v in args.values()
                if isinstance(v, np.ndarray)]
        del cases
        assert all(ref() is not None for ref in kept)
        del plans
        assert all(ref() is None for ref in kept)

    @BAD_WINDOW_ARGS
    def test_bad_field_rejected(self, c_stencil, key, bad):
        assert_rejected(c_stencil, key, bad)

    @BAD_WINDOW_ARGS
    def test_fallback_rejects_bad_field(self, key, bad):
        # The fallback's own test: it runs where there is no C compiler.
        assert_rejected(_stencil_py, key, bad)

    @pytest.mark.parametrize("shape", [(4, 9), (9, 4)])
    def test_grid_without_interior_rejected(self, shape):
        for args in window_case(nt=8):
            for name in ("prv", "cur", "nxt", "vdt2", "mask"):
                args[name] = _stencil_py.aligned_grid(*shape)
            with pytest.raises(ValueError, match="no interior"):
                make_plan(args)


def length_cuts(nt, lengths):
    """Window boundaries over [0, nt), the windows taking ``lengths`` in turn."""
    cuts = [0]
    for k in itertools.cycle(lengths):
        cuts.append(min(cuts[-1] + k, nt))
        if cuts[-1] == nt:
            return cuts


def assert_same_bytes(a, b, err_msg):
    """Equal values and equal bytes: +0.0 and -0.0 differ, as equal values
    they do not."""
    np.testing.assert_array_equal(a, b, err_msg=err_msg)
    assert a.tobytes() == b.tobytes(), err_msg


def assert_same_runs(impl, nt=150, cuts=None, dead=(), **case):
    """``impl`` stepping [0, nt) in one window, in windows cut at ``cuts`` and
    one step per window, and the fallback in one window, all give the same
    bytes, halo included; every output and field is live but those named in
    ``dead``.  Returns the first run's."""
    runs = [run_windows(impl, nt=nt, **case), run_windows(impl, nt=nt, cuts=cuts, **case),
            run_windows(impl, 1, nt=nt, **case), run_windows(_stencil_py, nt=nt, **case)]
    for k in runs[0]:
        assert (np.abs(runs[0][k]).max() > 0) != (k in dead), k
        for other in runs[1:]:
            assert_same_bytes(runs[0][k], other[k], k)
    return runs[0]


# Rows of window_case's padded grid: 0, 1 and ROWS - 2, ROWS - 1 are halo.
ROWS = 20 + 2 * (solver.SPONGE_CELLS + solver.HALO)


class TestTwoStepSweeps:
    """The C forward steps two at a time, the second lagging the first by the
    source cells' row span plus 3; every split of a run, every placement of
    the injection cells and every first_frame gives the one-step bits."""

    @pytest.mark.parametrize("lengths", [(0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0), (3,), (2,)],
                             ids=["rising", "falling", "odd", "even"])
    def test_window_lengths_0_to_5(self, c_stencil, lengths):
        # with zero-length windows, and cuts at odd and even steps
        assert_same_runs(c_stencil, nt=60, cuts=length_cuts(60, lengths), noisy=True)

    @pytest.mark.parametrize(
        "src_rows", [(2, 3), (ROWS - 4, ROWS - 3), (0, 1), (ROWS - 2, ROWS - 1), (1, 2),
                     (0, ROWS - 1), (2, ROWS - 3)],
        ids=["first_interior", "last_interior", "top_halo", "bottom_halo", "halo_and_interior",
             "every_row", "every_interior_row"])
    def test_source_cells_anywhere(self, c_stencil, src_rows):
        # The padded grid is ROWS rows, 2 .. ROWS - 3 interior.  The adjoint
        # field stays zero in the halo, so source cells there read no q_star.
        halo = all(r < 2 or r > ROWS - 3 for r in src_rows)
        assert_same_runs(c_stencil, nt=40, cuts=length_cuts(40, (7,)), src_rows=src_rows,
                         noisy=True, dead=("q_star",) if halo else ())

    def test_receivers_span_every_row(self, c_stencil):
        # receivers in every row, halo rows too, two to a cell pair
        assert_same_runs(c_stencil, nt=40, cuts=length_cuts(40, (5,)),
                         rec_rows=[*range(ROWS - 1), 0, ROWS // 2 - 1, ROWS - 2],
                         src_rows=(0, ROWS - 1), noisy=True,
                         dead=("q_star",))

    @pytest.mark.parametrize("first", [0, 1, 2, 37, 38, 59, 60])
    def test_first_frame_odd_and_even(self, c_stencil, first):
        runs = [run_windows(impl, size, nt=60, first=first)
                for impl, size in ((c_stencil, None), (c_stencil, 1), (_stencil_py, None))]
        for k in runs[0]:
            for other in runs[1:]:
                np.testing.assert_array_equal(runs[0][k], other[k], err_msg=k)

    def test_pair_cut_by_the_finiteness_check(self, c_stencil):
        # nt = 130: one window pairs steps 128 and 129; the solver's windows
        # [0, 1), [1, 129) and [129, 130) cut that pair
        nt = 130
        windows = solver._windows(0, nt, 1)
        assert windows[-1] == (129, 130)
        assert_same_runs(c_stencil, nt=nt, cuts=[0] + [n1 for _, n1 in windows])


class TestRowLayout:
    """The padded grid's arrays are rows ld = nx rounded up to 8 doubles
    apart, with column HALO of every row on a 64-byte boundary, so the C
    rows' vector loads and stores never split a cache line; the layout
    changes no bit."""

    # model widths whose padded widths take every residue mod 8
    WIDTHS = range(21, 29)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_column_2_of_every_row_starts_a_cache_line(self, width):
        model = make_layered_model(20, width, 10.0, 10.0, [1500.0])
        prop = solver._Propagator(model, default_dt(model))
        assert prop.ld == 8 * math.ceil((prop.nx_pad + 4) / 8)
        adjoint = _stencil_py.Plan(4, prop.fields(), prop.coefficients, (None, None),
                                   prop.interp_cells(((50.0, 30.0),)), data=np.zeros((4, 1)))
        grids = {**dict(zip(("prv", "cur", "nxt"), prop.fields())), "vdt2": prop.vdt2,
                 "mask": prop.mask, "ring": adjoint.ring}
        for name, a in grids.items():
            rows = len(a)
            assert a.strides == (prop.ld * 8, 8), name
            starts = a.ctypes.data + 8 * solver.HALO + 8 * prop.ld * np.arange(rows)
            assert (starts % 64 == 0).all(), name
        assert adjoint.c.ld == prop.ld and adjoint.ring.shape == (7, prop.ld)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_windows_bitwise_equal_on_every_residue(self, c_stencil, width):
        # C in one window, in windows of 7 and one step at a time, and the
        # NumPy fallback, forward and adjoint, with frames, image and q_star
        # on: the same bytes, and every field's halo +0.0, though the C rows'
        # whole blocks run over the right halo
        run = assert_same_runs(c_stencil, nt=40, cuts=length_cuts(40, (7,)),
                               shape=(20, width), noisy=True)
        for k, f in run.items():
            if k.startswith(("forward.", "adjoint.")):
                halo = np.ones(f.shape, dtype=bool)
                halo[2:-2, 2:-2] = False
                assert not f[halo].view(np.uint64).any(), k  # +0.0 is all zero bits

    # the levels the clones are built for, best first
    LEVELS = ("x86-64-v4", "x86-64-v3", "default")

    @pytest.mark.parametrize("level", LEVELS)
    def test_each_level_gives_the_fallback_bytes_on_every_residue(self, c_stencil, tmp_path,
                                                                   level):
        # one plain build per level, -march choosing it, against the fallback;
        # the loaded copy is the best level this CPU runs
        if self.LEVELS.index(c_stencil.isa) > self.LEVELS.index(level):
            pytest.skip(f"this CPU runs no {level} code")
        path = str(tmp_path / f"{level}.so")
        march = "" if level == "default" else f" -march={level}"
        assert _backend._compile(path, _backend.CFLAGS + " -DDISPATCH=" + march) is None
        kernel = _backend.Kernel(path)
        for width in self.WIDTHS:
            case = dict(nt=40, shape=(20, width), noisy=True)
            c, py = run_windows(kernel, **case), run_windows(_stencil_py, **case)
            for k in c:
                assert_same_bytes(c[k], py[k], f"{k}, width {width}")

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_source_in_halo_columns(self, c_stencil, side, width):
        # The halo is never stepped, in either backend: what is injected
        # there stays, and the interior next to it reads it.  The C rows'
        # blocks, which run over the right halo at 7 of the 8 residues, put
        # back what it held.
        col = 0 if side == "left" else width + 2 * (solver.SPONGE_CELLS + solver.HALO) - 2
        assert_same_runs(c_stencil, nt=40, cuts=length_cuts(40, (7,)), shape=(20, width),
                         noisy=True, src_rows=(ROWS // 2, ROWS // 2 + 1), src_col=col,
                         dead=("q_star",))

    @staticmethod
    def loop_cells(prop, positions):
        """interp_cells as one position at a time in Python floats."""
        m = prop.model
        idx, wt = np.empty((len(positions), 4), dtype=np.intp), np.empty((len(positions), 4))
        for k, (x, z) in enumerate(positions):
            gz = (z - m.oz) / m.dz + prop.pad
            gx = (x - m.ox) / m.dx + prop.pad
            i0 = min(int(math.floor(gz)), prop.nz_pad - 2)
            j0 = min(int(math.floor(gx)), prop.nx_pad - 2)
            fz, fx = gz - i0, gx - j0
            c = i0 * prop.ld + j0
            idx[k] = (c, c + 1, c + prop.ld, c + prop.ld + 1)
            wt[k] = ((1 - fz) * (1 - fx), (1 - fz) * fx, fz * (1 - fx), fz * fx)
        return idx, wt

    def test_interp_cells_match_a_loop_reference(self):
        v = np.full((23, 27), 1500.0)
        model = VelocityModel2D(23, 27, 7.5, 12.5, 12.25, -35.5, v)
        prop = solver._Propagator(model, default_dt(model))
        (x0, x1), (z0, z1) = model.extent_x, model.extent_z
        rng = np.random.default_rng(5)
        positions = [(x0, z0), (x1, z1), (x0, z1), (x1, z0), (0, 100), (100.0, 13)]
        positions += [tuple(p) for p in rng.uniform((x0, z0), (x1, z1), (40, 2))]
        idx, wt = prop.interp_cells(positions)
        ref_idx, ref_wt = self.loop_cells(prop, positions)
        assert idx.dtype == np.intp and idx.shape == wt.shape == (len(positions), 4)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(wt, ref_wt)
        assert prop.interp_cells([])[0].shape == (0, 4)
        with pytest.raises(ValueError, match=r"position \(x=-36, z=20\) outside the model extent"):
            prop.interp_cells([(0.0, 20.0), (-36.0, 20.0), (x1 + 1, 20.0)])


class TestBlobSerialization:
    def test_image_grid_blob_roundtrip(self):
        from rtmcloud.blobstore import decode_image, encode_image
        from rtmcloud.wavekernel import ImageGrid

        rng = np.random.default_rng(2)
        grid = ImageGrid(5, 4, 10.0, 12.5, 0.0, -5.0, rng.standard_normal((5, 4)))
        back = ImageGrid.from_blob(decode_image(encode_image(grid.to_blob(leaf_count=3))))
        np.testing.assert_array_equal(back.values, grid.values)
        assert (back.dz, back.dx, back.oz, back.ox) == (10.0, 12.5, 0.0, -5.0)

    def test_shot_record_panel_roundtrip(self):
        from rtmcloud.blobstore import decode_image, encode_image

        model, source, receivers, wavelet, dt, nt = small_setup(record_time=0.4)
        rec = forward_model(model, source, wavelet, receivers, dt, nt)
        blob = decode_image(encode_image(rec.to_blob()))
        assert blob.kind == "shotrec"
        assert blob.nz == nt and blob.nx == len(receivers)
        assert blob.dz == dt and blob.oz == dt
        np.testing.assert_array_equal(blob.values, rec.traces)

    def test_shot_record_header_times_the_direct_arrival(self):
        # Against a record stepped 8x finer, the direct arrival 20 m from the
        # source peaks within half a default step of the header's time.
        from rtmcloud.blobstore import decode_image, encode_image

        model = make_layered_model(61, 61, 10.0, 10.0, [1500.0])
        peaks = []
        for k in (1, 8):
            dt = default_dt(model) / k
            nt = int(round(0.4 / dt)) + 1
            rec = forward_model(model, (300.0, 300.0), ricker(15.0, dt, nt), ((320.0, 300.0),),
                                dt, nt)
            blob = decode_image(encode_image(rec.to_blob()))
            trace = blob.values[:, 0]
            n = int(np.argmax(np.abs(trace)))
            a, b, c = trace[n - 1 : n + 2]  # a parabola through the peak sample
            peaks.append(blob.oz + (n + 0.5 * (a - c) / (a - 2 * b + c)) * blob.dz)
        assert abs(peaks[0] - peaks[1]) < 0.5 * default_dt(model)


class TestShotRecordValidation:
    def test_shape_mismatch_rejected(self):
        from rtmcloud.wavekernel import ShotRecord

        with pytest.raises(ValueError):
            ShotRecord(0, ((0.0, 0.0),), 0.002, 10, np.zeros((5, 1)))

    def test_non_finite_rejected(self):
        from rtmcloud.wavekernel import ShotRecord

        bad = np.zeros((10, 1))
        bad[3, 0] = math.inf
        with pytest.raises(ValueError):
            ShotRecord(0, ((0.0, 0.0),), 0.002, 10, bad)
