import dataclasses
import functools
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_render_image, same_bits
from waveflow.data import (
    DatasetManifest,
    LesionProfile,
    ManifestError,
    ManifestRecord,
    PgmError,
    SynthConfig,
    _draw,
    _image_rng,
    _paint,
    generate_synthetic,
    load_image,
    load_split,
    read_manifest,
    render_image,
    save_image,
    write_manifest,
)
from waveflow.haar import build_pyramid

SMALL = dataclasses.replace(SynthConfig(), train_in_dist=6, test_in_dist=4, test_ood=4)
# Every class feature well above the defaults, with three to six hair strokes an image.
ALL_KNOBS_UP = LesionProfile(
    radius=(0.1, 0.45),
    contrast=(0.2, 0.9),
    edge_width=0.6,
    shading=0.5,
    border_irregularity=0.3,
    texture=0.2,
    hair_strokes=(3, 6),
)
PROFILES = {"in_dist": SynthConfig().in_dist, "ood": SynthConfig().ood, "all_knobs_up": ALL_KNOBS_UP}


def knobs_off(profile: LesionProfile) -> LesionProfile:
    """The profile with every class feature except radius/contrast disabled."""
    return dataclasses.replace(profile, border_irregularity=0.0, texture=0.0, hair_strokes=(0, 0))


# Byte edits of a valid file: (kind, position, byte); a position is taken
# modulo the current length.  Derandomized, so every run fuzzes the same files.
EDITS = st.lists(
    st.tuples(st.sampled_from(["mutate", "insert", "delete"]), st.integers(0, 255), st.integers(0, 255)),
    min_size=1,
    max_size=6,
)
FUZZ_SETTINGS = settings(derandomize=True, database=None, max_examples=400, deadline=None)


def apply_edits(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for kind, pos, byte in edits:
        if kind == "insert":
            out.insert(pos % (len(out) + 1), byte)
        elif out and kind == "mutate":
            out[pos % len(out)] = byte
        elif out:
            del out[pos % len(out)]
    return bytes(out)


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def reference_images(size: int, name: str, count: int = 200) -> tuple[np.ndarray, ...]:
    """The reference renderer's images 0..count-1 of a profile at a size."""
    cfg = dataclasses.replace(SynthConfig(), image_size=size)
    return tuple(reference_render_image(cfg, PROFILES[name], _image_rng(size, "test", "ood", i)) for i in range(count))


def write_reference_tree(config: SynthConfig, root) -> None:
    """The dataset ``generate_synthetic`` must write, one image at a time
    from the reference renderer, in the graymap format spelled out here."""
    records = []
    for split, label, count, profile in [
        ("train", "in_dist", config.train_in_dist, config.in_dist),
        ("test", "in_dist", config.test_in_dist, config.in_dist),
        ("test", "ood", config.test_ood, config.ood),
    ]:
        for index in range(count):
            rec = ManifestRecord(f"images/{split}_{label}_{index:04d}.pgm", label, split)
            image = reference_render_image(config, profile, _image_rng(config.seed, split, label, index))[0]
            (root / "images").mkdir(parents=True, exist_ok=True)
            header = f"P5\n{config.image_size} {config.image_size}\n255\n".encode("ascii")
            (root / rec.path).write_bytes(header + np.rint(image * 255.0).astype(np.uint8).tobytes())
            records.append(rec)
    write_manifest(DatasetManifest(records=tuple(records)), root / "manifest.csv")


class TestPgm:
    def test_round_trip_is_exact_on_8bit_grid(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (1, 8, 8)) / 255.0
        save_image(img, tmp_path / "a.pgm")
        assert np.array_equal(load_image(tmp_path / "a.pgm"), img)

    def test_reload_within_rounding_bound(self, tmp_path):
        img = np.random.default_rng(1).random((1, 16, 16))
        save_image(img, tmp_path / "a.pgm")
        out = load_image(tmp_path / "a.pgm")
        assert np.max(np.abs(out - img)) <= 1.0 / 510.0 + 1e-12

    def test_non_square_and_2d_input(self, tmp_path):
        img = np.random.default_rng(2).integers(0, 256, (4, 6)) / 255.0
        save_image(img, tmp_path / "a.pgm")
        out = load_image(tmp_path / "a.pgm")
        assert out.shape == (1, 4, 6)
        assert np.array_equal(out[0], img)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5 # magic\n# a comment line\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        out = load_image(path)
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 1] == 128 / 255.0

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(PgmError, match="P5"):
            load_image(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(PgmError, match="unsupported depth"):
            load_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(PgmError, match="truncated"):
            load_image(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n4")
        with pytest.raises(PgmError, match="truncated"):
            load_image(path)

    def test_non_numeric_header(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\nx 2\n255\n" + bytes(4))
        with pytest.raises(PgmError, match="non-numeric"):
            load_image(path)

    @pytest.mark.parametrize(
        "blob",
        [b"P2\n2 2\n255\n0123", b"P5\n4", b"P5\nx 2\n255\n0123", b"P5\n0 2\n255\n", b"P5\n4 4\n255\n0"],
        ids=["magic", "header", "non-numeric", "dimensions", "payload"],
    )
    def test_errors_name_the_file(self, tmp_path, blob):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(PgmError, match=re.escape(str(path))):
            load_image(path)

    @FUZZ_SETTINGS
    @given(edits=EDITS)
    def test_mutated_graymap_loads_or_raises_pgm_error(self, tmp_path_factory, edits):
        path = tmp_path_factory.getbasetemp() / "fuzzed.pgm"
        path.write_bytes(apply_edits(b"P5\n4 4\n255\n" + bytes(range(0, 256, 16)), edits))
        try:
            image = load_image(path)
        except PgmError as exc:
            assert str(path) in str(exc)
        else:
            assert image.dtype == np.float64 and image.ndim == 3 and image.shape[0] == 1
            assert 0.0 <= image.min() and image.max() <= 1.0

    def test_save_writes_header_and_payload(self, tmp_path):
        save_image(np.array([[0.0, 1.0, 0.5]]), tmp_path / "a.pgm")
        assert (tmp_path / "a.pgm").read_bytes() == b"P5\n3 1\n255\n" + bytes([0, 255, 128])

    def test_save_rejects_out_of_range(self, tmp_path):
        with pytest.raises(PgmError, match=r"\[0,1\]"):
            save_image(np.full((2, 2), 1.5), tmp_path / "a.pgm")
        with pytest.raises(PgmError, match="finite"):
            save_image(np.full((2, 2), np.nan), tmp_path / "a.pgm")

    @pytest.mark.parametrize(
        "image", [np.full((2, 2), np.nan), np.full((2, 2, 2), 0.5)], ids=["values", "shape"]
    )
    def test_save_errors_name_the_file(self, tmp_path, image):
        path = tmp_path / "a.pgm"
        with pytest.raises(PgmError, match="^" + re.escape(f"{path}: ")):
            save_image(image, path)
        assert not path.exists()


class TestManifest:
    def _records(self, n):
        recs = [ManifestRecord(f"images/tr_{i}.pgm", "in_dist", "train") for i in range(n)]
        recs += [ManifestRecord(f"images/te_{i}.pgm", "ood", "test") for i in range(n)]
        return tuple(recs)

    def test_round_trip_identity(self, tmp_path):
        manifest = DatasetManifest(records=self._records(5), root=str(tmp_path))
        write_manifest(manifest, tmp_path / "manifest.csv")
        loaded = read_manifest(tmp_path / "manifest.csv")
        assert loaded.records == manifest.records
        assert loaded.root == str(tmp_path)

    def test_large_manifest_rewrites_byte_identically(self, tmp_path):
        manifest = DatasetManifest(records=self._records(500))
        write_manifest(manifest, tmp_path / "a.csv")
        loaded = read_manifest(tmp_path / "a.csv")
        write_manifest(loaded, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_empty_manifest_is_header_only(self, tmp_path):
        write_manifest(DatasetManifest(records=()), tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text() == "path,label,split\n"
        assert read_manifest(tmp_path / "m.csv").records == ()

    def test_ood_in_train_rejected(self):
        manifest = DatasetManifest(records=(ManifestRecord("x.pgm", "ood", "train"),))
        with pytest.raises(ManifestError, match="train split"):
            manifest.validate()

    def test_duplicate_path_rejected(self):
        rec = ManifestRecord("x.pgm", "in_dist", "test")
        with pytest.raises(ManifestError, match="duplicate"):
            DatasetManifest(records=(rec, rec)).validate()

    def test_unknown_label_and_split_rejected(self):
        with pytest.raises(ManifestError, match="unknown label"):
            DatasetManifest(records=(ManifestRecord("x.pgm", "bad", "test"),)).validate()
        with pytest.raises(ManifestError, match="unknown split"):
            DatasetManifest(records=(ManifestRecord("x.pgm", "ood", "val"),)).validate()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("file,label,split\nx.pgm,ood,test\n")
        with pytest.raises(ManifestError, match="header"):
            read_manifest(path)

    def test_bad_field_count_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("path,label,split\nx.pgm,ood\n")
        with pytest.raises(ManifestError, match="line 2"):
            read_manifest(path)

    @pytest.mark.parametrize("bad", [b"\xc3\xa9", b"x" * 140_000], ids=["non-ascii", "oversized-field"])
    def test_unreadable_bytes_rejected(self, tmp_path, bad):
        path = tmp_path / "m.csv"
        path.write_bytes(b"path,label,split\nimag" + bad + b"s/a.pgm,ood,test\n")
        with pytest.raises(ManifestError, match="m.csv"):
            read_manifest(path)

    @FUZZ_SETTINGS
    @given(edits=EDITS)
    def test_mutated_manifest_loads_or_raises_manifest_error(self, tmp_path_factory, edits):
        blob = b'path,label,split\nimages/a.pgm,in_dist,train\n"images/b,1.pgm",ood,test\n'
        path = tmp_path_factory.getbasetemp() / "fuzzed_manifest.csv"
        path.write_bytes(apply_edits(blob, edits))
        try:
            read_manifest(path)
        except ManifestError:
            pass

    def test_select_filters(self):
        manifest = DatasetManifest(records=self._records(3))
        assert len(manifest.select(split="train")) == 3
        assert len(manifest.select(split="test", label="ood")) == 3
        assert manifest.select(label="in_dist")[0].split == "train"


class TestRendererOracle:
    """The chunked renderer against the one-image reference renderer, bit for bit."""

    @pytest.mark.parametrize("size", [4, 8, 32, 64])
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_render_image_matches_reference(self, name, size):
        cfg = dataclasses.replace(SynthConfig(), image_size=size)
        for i, want in enumerate(reference_images(size, name)):
            assert same_bits(render_image(cfg, PROFILES[name], _image_rng(size, "test", "ood", i)), want), i

    @pytest.mark.parametrize("size", [4, 32, 64])
    @pytest.mark.parametrize("name", sorted(PROFILES))
    @pytest.mark.parametrize("chunk", [7, 16])
    def test_painted_chunks_match_reference(self, name, size, chunk):
        cfg = dataclasses.replace(SynthConfig(), image_size=size)
        wants = reference_images(size, name)
        draws = [_draw(cfg, PROFILES[name], _image_rng(size, "test", "ood", i)) for i in range(len(wants))]
        for start in range(0, len(draws), chunk):
            painted = _paint(cfg, PROFILES[name], draws[start : start + chunk])
            assert painted.shape == (min(chunk, len(draws) - start), size, size)
            for i, got in enumerate(painted, start):
                assert same_bits(got, wants[i][0]), i

    @pytest.mark.parametrize("threads", [1, 3])
    def test_generated_tree_matches_reference(self, tmp_path, threads):
        # Counts that are not multiples of the chunk, and a chunk of one.
        cfg = dataclasses.replace(SynthConfig(), train_in_dist=17, test_in_dist=1, test_ood=33, ood=ALL_KNOBS_UP, seed=11)
        generate_synthetic(cfg, tmp_path / "got", threads=threads)
        write_reference_tree(cfg, tmp_path / "want")
        got = sorted(p.relative_to(tmp_path / "got") for p in (tmp_path / "got").rglob("*") if p.is_file())
        want = sorted(p.relative_to(tmp_path / "want") for p in (tmp_path / "want").rglob("*") if p.is_file())
        assert got == want and len(got) == 17 + 1 + 33 + 1
        for path in got:
            assert (tmp_path / "got" / path).read_bytes() == (tmp_path / "want" / path).read_bytes(), path


class TestGenerator:
    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        generate_synthetic(SMALL, tmp_path / "a")
        generate_synthetic(SMALL, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_threaded_generation_matches_serial(self, tmp_path):
        generate_synthetic(SMALL, tmp_path / "serial", threads=1)
        generate_synthetic(SMALL, tmp_path / "pooled", threads=4)
        assert tree_digest(tmp_path / "serial") == tree_digest(tmp_path / "pooled")

    def test_different_seed_changes_bytes(self, tmp_path):
        generate_synthetic(SMALL, tmp_path / "a")
        generate_synthetic(dataclasses.replace(SMALL, seed=1), tmp_path / "b")
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")

    def test_manifest_counts_and_purity(self, tmp_path):
        manifest = generate_synthetic(SMALL, tmp_path / "d")
        manifest.validate()
        assert len(manifest.select(split="train")) == 6
        assert len(manifest.select(split="train", label="ood")) == 0
        assert len(manifest.select(split="test", label="in_dist")) == 4
        assert len(manifest.select(split="test", label="ood")) == 4
        images, records = load_split(manifest, "test")
        assert images.shape == (8, 1, 32, 32)
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_pixels_in_unit_interval(self):
        cfg = SynthConfig()
        for label, profile in [("in_dist", cfg.in_dist), ("ood", cfg.ood)]:
            for i in range(5):
                img = render_image(cfg, profile, _image_rng(cfg.seed, "test", label, i))
                assert img.shape == (1, 32, 32)
                assert img.min() >= 0.0 and img.max() <= 1.0

    def test_knobs_off_classes_differ_only_in_radius(self):
        # With texture/irregularity/hair zeroed, a profile is a function of
        # (radius, contrast, ...) draws alone: aligning the ranges makes the
        # two classes replay identical images from identical streams.
        cfg = SynthConfig()
        plain_in = knobs_off(cfg.in_dist)
        plain_ood = knobs_off(cfg.ood)
        matched = dataclasses.replace(
            plain_ood,
            radius=plain_in.radius,
            contrast=plain_in.contrast,
            edge_width=plain_in.edge_width,
            shading=plain_in.shading,
        )
        for i in range(4):
            a = render_image(cfg, plain_in, np.random.default_rng([7, i]))
            b = render_image(cfg, matched, np.random.default_rng([7, i]))
            assert np.array_equal(a, b)
        # while an actually different radius range changes the image
        a = render_image(cfg, plain_in, np.random.default_rng([7, 0]))
        b = render_image(cfg, plain_ood, np.random.default_rng([7, 0]))
        assert not np.array_equal(a, b)

    def test_finest_level_energy_gap(self):
        cfg = SynthConfig()

        def finest_energy(image):
            pyramid = build_pyramid(image)
            finest = max(lvl.level_index for lvl in pyramid.levels)
            detail = next(l.detail for l in pyramid.levels if l.level_index == finest)
            return float(np.mean(detail**2))

        e_in = np.mean(
            [
                finest_energy(render_image(cfg, cfg.in_dist, _image_rng(0, "test", "in_dist", i)))
                for i in range(40)
            ]
        )
        e_ood = np.mean(
            [
                finest_energy(render_image(cfg, cfg.ood, _image_rng(0, "test", "ood", i)))
                for i in range(40)
            ]
        )
        assert e_ood >= 2.0 * e_in

    def test_config_validation(self):
        for image_size in (2, 12):
            with pytest.raises(ValueError, match="image_size"):
                dataclasses.replace(SMALL, image_size=image_size).validate()
        with pytest.raises(ValueError, match="radius"):
            dataclasses.replace(
                SMALL, in_dist=dataclasses.replace(SMALL.in_dist, radius=(0.3, 0.2))
            ).validate()
        with pytest.raises(ValueError, match="brightness"):
            dataclasses.replace(SMALL, brightness=(0.5, 1.4)).validate()
        for count in (-1, 0):
            with pytest.raises(ValueError, match="train_in_dist"):
                dataclasses.replace(SMALL, train_in_dist=count).validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "field", ["edge_width", "shading", "border_irregularity", "texture", "background_gradient"]
    )
    def test_non_finite_knob_rejected_before_any_file(self, field, value, tmp_path):
        if field == "background_gradient":
            config = dataclasses.replace(SMALL, background_gradient=value)
        else:
            config = dataclasses.replace(SMALL, ood=dataclasses.replace(SMALL.ood, **{field: value}))
        with pytest.raises(ValueError, match=field):
            generate_synthetic(config, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_load_split_missing_selection(self, tmp_path):
        manifest = generate_synthetic(SMALL, tmp_path / "d")
        with pytest.raises(ManifestError, match="no records"):
            load_split(manifest, "train", label="ood")

    def test_load_split_names_the_first_image_of_another_size(self, tmp_path):
        records = []
        for name, size in (("a", 16), ("small", 8), ("b", 16), ("tiny", 4)):
            save_image(np.full((1, size, size), 0.25), tmp_path / f"{name}.pgm")
            records.append(ManifestRecord(f"{name}.pgm", "in_dist", "train"))
        manifest = DatasetManifest(records=tuple(records), root=str(tmp_path))
        with pytest.raises(ManifestError, match=r"^small\.pgm: shape \(1, 8, 8\) differs"):
            load_split(manifest, "train")
