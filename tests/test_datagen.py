"""Scene generation, augmentation, sampling, and dataset layout checks."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmca.datagen import (
    MIN_SCENE_SIDE,
    AffineParams,
    ObjectSpec,
    OcclusionEvent,
    SceneConfig,
    VideoSequence,
    format_scene_cfg,
    generate_sequence,
    list_sequences,
    load_sequence,
    parse_scene_cfg,
    random_affine,
    random_scene,
    sample_triplet_indices,
    synth_pretrain_pair,
    warp_pair,
    write_sequence,
)
from npmca.errors import ConfigError, FormatError
from npmca.netpbm import probability_to_byte, to_unit_float
from npmca.rng import make_rng


def point_in_shape(shape, size, py, px, cy, cx):
    """Scalar point-in-shape oracle, written independently of the renderer."""
    dy, dx = py - cy, px - cx
    if shape == "disc":
        return dy * dy + dx * dx <= size * size
    if shape == "rectangle":
        return abs(dy) <= size and abs(dx) <= size
    return dy <= size and 2 * dx - dy <= size and -2 * dx - dy <= size


def disc_scene(center=(32.0, 10.0), velocity=(0.0, 2.0), frames=8, **kw):
    obj = ObjectSpec("disc", center, 5.0, (0.9, 0.3, 0.2), velocity, **kw)
    return SceneConfig((64, 96), frames, (obj,))


class TestGenerateSequence:
    def test_static_scene_repeats_one_frame(self):
        cfg = disc_scene(velocity=(0.0, 0.0))
        video = generate_sequence(cfg, 5)
        for frame, mask in zip(video.frames[1:], video.masks[1:]):
            assert np.array_equal(frame, video.frames[0])
            assert np.array_equal(mask, video.masks[0])

    def test_centroid_tracks_integer_velocity_exactly(self):
        video = generate_sequence(disc_scene(), 5)
        xs = []
        for mask in video.masks:
            ys, cols = np.nonzero(mask)
            xs.append(cols.mean())
        steps = np.diff(xs)
        assert_allclose(steps, 2.0, atol=1e-12)

    def test_centroid_stops_at_the_wall(self):
        video = generate_sequence(disc_scene(center=(32.0, 80.0), velocity=(0.0, 20.0)), 5)
        xs = [np.nonzero(m)[1].mean() for m in video.masks]
        assert xs[1] == xs[-1]  # clamped to the right edge from frame 1 on
        assert max(xs) < 96

    def test_same_config_and_seed_is_bitwise_identical(self):
        cfg = random_scene(33, "default")
        a = generate_sequence(cfg, 12)
        b = generate_sequence(cfg, 12)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa, fb)
        for ma, mb in zip(a.masks, b.masks):
            assert np.array_equal(ma, mb)
        c = generate_sequence(cfg, 13)
        assert not np.array_equal(a.frames[0], c.frames[0])

    def test_masks_agree_with_point_in_shape_oracle(self):
        rng = make_rng(7)
        for seed in (1, 2):
            cfg = random_scene(seed, "default")
            video = generate_sequence(cfg, seed)
            t = int(rng.integers(cfg.frames))
            mask = video.masks[t]
            # rebuild the per-object states the way the renderer defines them
            from npmca.datagen import _object_state

            states = [_object_state(o, t, cfg.resolution) for o in cfg.objects]
            for _ in range(200):
                py = int(rng.integers(cfg.resolution[0]))
                px = int(rng.integers(cfg.resolution[1]))
                want = 0
                for i, (obj, (cy, cx, size, _)) in enumerate(zip(cfg.objects, states)):
                    if point_in_shape(obj.shape, size, py + 0.5, px + 0.5, cy, cx):
                        want = i + 1  # later objects override earlier ones
                assert mask[py, px] == want

    def test_later_listed_object_owns_contested_pixels(self):
        a = ObjectSpec("rectangle", (32.0, 40.0), 8.0, (0.9, 0.1, 0.1))
        b = ObjectSpec("disc", (32.0, 44.0), 8.0, (0.1, 0.9, 0.1))
        video = generate_sequence(SceneConfig((64, 96), 2, (a, b)), 0)
        mask = video.masks[0]
        assert (mask[32, 40:48] == 2).all()  # overlap zone
        assert (mask == 1).any() and (mask == 2).any()

    def test_object_out_of_frame_is_rejected(self):
        with pytest.raises(ConfigError):
            disc_scene(center=(3.0, 10.0))  # disc of radius 5 pokes out the top

    def test_config_validation(self):
        obj = ObjectSpec("disc", (32.0, 32.0), 5.0, (1.0, 0.0, 0.0))
        with pytest.raises(ConfigError):
            SceneConfig((64, 96), 1, (obj,))
        with pytest.raises(ConfigError):
            SceneConfig((64, 96), 8, ())
        with pytest.raises(ConfigError):
            ObjectSpec("hexagon", (32.0, 32.0), 5.0, (1.0, 0.0, 0.0))
        with pytest.raises(ConfigError):
            ObjectSpec("disc", (32.0, 32.0), -1.0, (1.0, 0.0, 0.0))
        with pytest.raises(ConfigError):
            OcclusionEvent(top=0, bottom=1, frame=3)
        with pytest.raises(ConfigError):
            SceneConfig((64, 96), 8, (obj, obj), (OcclusionEvent(5, 0, 3),))


class TestRandomScene:
    def test_presets_are_deterministic_and_valid(self):
        for preset in ("default", "occlusion-heavy"):
            a = random_scene(3, preset)
            b = random_scene(3, preset)
            assert a == b
            generate_sequence(a, 3)
        with pytest.raises(ConfigError):
            random_scene(3, "cinematic")

    @pytest.mark.parametrize("preset", ["default", "occlusion-heavy"])
    def test_sides_below_the_minimum_are_config_errors(self, preset):
        for resolution in [(MIN_SCENE_SIDE - 1, 96), (64, 0), (6, 10)]:
            with pytest.raises(ConfigError, match=f"at least {MIN_SCENE_SIDE}"):
                random_scene(3, preset, resolution)
        generate_sequence(random_scene(3, preset, (MIN_SCENE_SIDE, MIN_SCENE_SIDE)), 3)

    def test_occlusion_heavy_scenes_do_occlude(self):
        for seed in range(8):
            cfg = random_scene(seed, "occlusion-heavy")
            assert cfg.occlusions and len(cfg.objects) == 2
            event = cfg.occlusions[0]
            video = generate_sequence(cfg, seed)
            bottom_present = (video.masks[0] == event.bottom + 1).any()
            # at the crossing frame the top object covers part of the
            # bottom object's analytic footprint
            from npmca.datagen import _inside, _object_state

            h, w = cfg.resolution
            ys, xs = np.meshgrid(np.arange(h) + 0.5, np.arange(w) + 0.5, indexing="ij")
            cy, cx, size, _ = _object_state(cfg.objects[event.bottom], event.frame, cfg.resolution)
            bottom_zone = _inside(cfg.objects[event.bottom].shape, size, ys - cy, xs - cx)
            mask = video.masks[event.frame]
            assert bottom_present
            assert (mask[bottom_zone] == event.top + 1).any()


class TestSceneCfgRoundTrip:
    def test_round_trip_preserves_everything(self):
        for seed in (0, 4):
            cfg = random_scene(seed, "occlusion-heavy")
            text = format_scene_cfg(cfg, seed)
            parsed, parsed_seed = parse_scene_cfg(text)
            assert parsed == cfg
            assert parsed_seed == seed

    def test_malformed_lines_are_rejected(self):
        with pytest.raises(FormatError):
            parse_scene_cfg("seed=1\nnonsense\n")
        with pytest.raises(FormatError):
            parse_scene_cfg("frames=8\n")


class TestDatasetLayout:
    def test_write_then_load_round_trips(self, tmp_path):
        cfg = random_scene(2, "default")
        video = generate_sequence(cfg, 2, "seq00")
        write_sequence(tmp_path, video, format_scene_cfg(cfg, 2))
        loaded = load_sequence(tmp_path, "seq00")
        assert len(loaded.frames) == cfg.frames
        for got, want in zip(loaded.masks, video.masks):
            assert np.array_equal(got, want)
        for got, want in zip(loaded.frames, video.frames):
            assert np.abs(to_unit_float(got) - want).max() <= 0.5 / 255.0 + 1e-12  # 8-bit quantization
        assert (tmp_path / "seq00" / "scene.cfg").exists()

    def test_load_keeps_the_file_bytes(self, tmp_path):
        video = generate_sequence(random_scene(3, "default", (16, 24), 3), 3, "seq00")
        write_sequence(tmp_path, video)
        loaded = load_sequence(tmp_path, "seq00")
        assert all(f.dtype == np.uint8 and f.shape == (16, 24, 3) for f in loaded.frames)
        assert all(m.dtype == np.uint8 and m.shape == (16, 24) for m in loaded.masks)
        for frame, generated in zip(loaded.frames, video.frames):
            # the conversion the readers made before they returned bytes
            assert to_unit_float(frame).tobytes() == (frame.astype(np.float64) / 255.0).tobytes()
            assert np.array_equal(frame, probability_to_byte(generated))
        # generated clips are float already and pass through as they are
        assert to_unit_float(video.frames[0]) is video.frames[0]

    def test_listing_is_sorted(self, tmp_path):
        for name in ("b", "a", "c"):
            video = VideoSequence(name, [np.zeros((8, 8, 3))], [np.zeros((8, 8), dtype=int)])
            write_sequence(tmp_path, video)
        assert list_sequences(tmp_path) == ["a", "b", "c"]
        with pytest.raises(FileNotFoundError):
            list_sequences(tmp_path / "nowhere")

    def test_missing_masks_are_reported(self, tmp_path):
        video = VideoSequence("seq", [np.zeros((8, 8, 3))] * 2, [np.zeros((8, 8), dtype=int)] * 2)
        write_sequence(tmp_path, video)
        (tmp_path / "seq" / "masks" / "00001.pgm").unlink()
        with pytest.raises(FormatError):
            load_sequence(tmp_path, "seq")
        load_sequence(tmp_path, "seq", with_masks=False)


class TestWarpPair:
    def _checker(self, h=24, w=32):
        rng = make_rng(11)
        image = rng.uniform(size=(h, w, 3))
        mask = np.zeros((h, w), dtype=np.int64)
        mask[8:16, 10:22] = 1
        return image, mask

    def test_identity_is_exact(self):
        image, mask = self._checker()
        wi, wm = warp_pair(image, mask, AffineParams(0.0, 1.0))
        assert np.array_equal(wi, image)
        assert np.array_equal(wm, mask)

    def test_integer_translation_moves_both_together(self):
        image, mask = self._checker()
        wi, wm = warp_pair(image, mask, AffineParams(0.0, 1.0, (3.0, -2.0)))
        # interior of the output: pure shift of the source
        assert np.array_equal(wi[5:20, 2:28], image[2:17, 4:30])
        assert np.array_equal(wm[5:20, 2:28], mask[2:17, 4:30])

    def test_matches_per_pixel_oracle(self):
        image, mask = self._checker(12, 14)
        params = AffineParams(0.2, 1.05, (1.5, -0.75))
        wi, wm = warp_pair(image, mask, params)
        h, w = mask.shape
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        cos_t, sin_t = math.cos(-params.angle), math.sin(-params.angle)
        for py in range(0, h, 3):
            for px in range(0, w, 2):
                dy = py - cy - params.shift[0]
                dx = px - cx - params.shift[1]
                sy = min(max(cy + (cos_t * dy - sin_t * dx) / params.scale, 0.0), h - 1.0)
                sx = min(max(cx + (sin_t * dy + cos_t * dx) / params.scale, 0.0), w - 1.0)
                y0, x0 = int(math.floor(sy)), int(math.floor(sx))
                y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                fy, fx = sy - y0, sx - x0
                for ch in range(3):
                    top = (1 - fx) * image[y0, x0, ch] + fx * image[y0, x1, ch]
                    bot = (1 - fx) * image[y1, x0, ch] + fx * image[y1, x1, ch]
                    assert abs(wi[py, px, ch] - ((1 - fy) * top + fy * bot)) < 1e-12
                assert wm[py, px] == mask[int(round(sy)), int(round(sx))]


class TestSynthPretrainPair:
    def test_three_aligned_pairs_and_determinism(self):
        image, mask = TestWarpPair()._checker()
        triplet = synth_pretrain_pair(image, mask, 9)
        again = synth_pretrain_pair(image, mask, 9)
        assert len(triplet) == 3
        for (ia, ma), (ib, mb) in zip(triplet, again):
            assert np.array_equal(ia, ib) and np.array_equal(ma, mb)
            assert ia.shape == image.shape and ma.shape == mask.shape
            assert set(np.unique(ma)) <= set(np.unique(mask))
        changed = synth_pretrain_pair(image, mask, 10)
        assert not np.array_equal(triplet[0][0], changed[0][0])

    def test_empty_mask_is_rejected(self):
        with pytest.raises(ValueError):
            synth_pretrain_pair(np.zeros((8, 8, 3)), np.zeros((8, 8), dtype=int), 0)

    def test_affine_ranges(self):
        rng = make_rng(13)
        for _ in range(200):
            p = random_affine(rng, (64, 96))
            assert abs(p.angle) <= 15.0 * math.pi / 180.0
            assert 0.9 <= p.scale <= 1.1
            assert abs(p.shift[0]) <= 6.4 and abs(p.shift[1]) <= 9.6


class TestTripletSampling:
    def test_three_frames_leave_no_choice(self):
        rng = make_rng(0)
        for _ in range(20):
            assert sample_triplet_indices(3, 1, rng) == (0, 1, 2)

    def test_bounds_always_hold(self):
        rng = make_rng(1)
        for _ in range(2000):
            frame_count = int(rng.integers(3, 12))
            max_skip = int(rng.integers(1, 8))
            first, middle, last = sample_triplet_indices(frame_count, max_skip, rng)
            assert first == 0 < middle < last <= frame_count - 1
            assert 1 <= last - middle <= max_skip

    def test_skip_distribution_is_uniform(self):
        rng = make_rng(2)
        counts = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            _, middle, last = sample_triplet_indices(50, 5, rng)
            counts[last - middle - 1] += 1
        expected = draws / 5.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 25.0  # 4 degrees of freedom

    def test_argument_errors(self):
        rng = make_rng(3)
        with pytest.raises(ValueError):
            sample_triplet_indices(2, 5, rng)
        with pytest.raises(ValueError):
            sample_triplet_indices(10, 0, rng)
