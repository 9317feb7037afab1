import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from sfnse.config import RunConfig, parse_config, write_default_config
from sfnse.errors import DomainError, IoError, ParseError, ValidationError
from sfnse.output import format_value, read_snapshot, write_csv, write_snapshot
from sfnse.spectral import ComplexField, build_grid


class TestParse:
    def test_empty_file_gives_reference_defaults(self):
        config = parse_config("")
        assert config == RunConfig()
        assert config.alpha == 0.6
        assert (config.grid_a, config.grid_b, config.grid_n) == (-20.0, 20.0, 400)
        assert config.dt == 0.01
        assert config.epsilon == 0.01
        assert config.sigma == 1.0
        assert config.lam == 1.0
        assert config.noise_k == 100
        assert config.horizon_t == 10.0

    def test_comments_blanks_and_values(self):
        config = parse_config(
            """
# full line comment
model.alpha = 0.75   # trailing comment

model.sigma = 0
horizon.T = 0.4
scheme.integrator = splitting
mass.alphas = 0.5, 0.75
"""
        )
        assert config.alpha == 0.75
        assert config.sigma == 0.0
        assert config.horizon_t == 0.4
        assert config.integrator == "splitting"
        assert config.mass_alphas == (0.5, 0.75)

    def test_table2_style_config(self):
        config = parse_config("model.alpha = 0.75\nmodel.sigma = 0\nhorizon.T = 0.4")
        assert (config.alpha, config.sigma, config.horizon_t) == (0.75, 0.0, 0.4)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError) as info:
            parse_config("model.alpha = 1.5")
        assert info.value.key == "model.alpha"

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="unknown config key 'model.alhpa'") as info:
            parse_config("model.alhpa = 0.5")
        assert (info.value.line, info.value.column) == (1, 1)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_config("model.alpha 0.5")
        assert info.value.line == 1
        with pytest.raises(ParseError) as info:
            parse_config("\nmodel.alpha = zero")
        assert info.value.line == 2
        assert info.value.column == 15

    def test_non_finite_numbers_rejected(self):
        for text, key, line in [
            ("scheme.dt = inf", "scheme.dt", 1),
            ("model.alpha = 0.6\nmass.alphas = 0.6, nan", "mass.alphas", 2),
            ("model.lambda = nan", "model.lambda", 1),
            ("grid.b = 1e400", "grid.b", 1),
        ]:
            with pytest.raises(ParseError) as info:
                parse_config(text)
            assert info.value.line == line
            assert key in str(info.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("model.alpha = 0.5\nmodel.alpha = 0.6")

    def test_grid_ordering_validated(self):
        # -1e308 and 1e308 are each finite, but b - a overflows
        for a, b in [(5.0, -5.0), (-1e308, 1e308)]:
            with pytest.raises(ValidationError) as info:
                parse_config(f"grid.a = {a!r}\ngrid.b = {b!r}")
            assert info.value.key == "grid.b"
            with pytest.raises(ValidationError) as info:
                replace(RunConfig(), grid_a=a, grid_b=b)
            assert info.value.key == "grid.b"

    def test_more_range_checks(self):
        names = {setting.metadata["key"]: setting.name for setting in fields(RunConfig)}
        for key, text, value in [
            ("grid.N", "7", 7),
            ("scheme.dt", "0", 0.0),
            ("model.epsilon", "-0.01", -0.01),
            ("noise.K", "0", 0),
            ("noise.seed", "-3", -3),
            ("noise.seed", "18446744073709551616", 2**64),
            ("scheme.integrator", "rk4", "rk4"),
            ("noise.profile", "cos", "cos"),
            ("mass.alphas", "0.5, 2.0", (0.5, 2.0)),
            ("energy.n_paths", "0", 0),
            ("converge.n_paths", "0", 0),
            ("converge.levels", "1", 1),
            ("converge.ref_level", "4", 4),
            ("output.snapshot_stride", "-1", -1),
        ]:
            with pytest.raises(ValidationError) as info:
                parse_config(f"{key} = {text}")
            assert info.value.key == key
            # a config built in code is refused the same way
            with pytest.raises(ValidationError) as info:
                replace(RunConfig(), **{names[key]: value})
            assert info.value.key == key
        # wrong types and non-finite floats only code can pass (a file's "1.5"
        # for an integer, or its "nan", is a ParseError)
        nan, inf = float("nan"), float("inf")
        for key, value in [
            ("noise.seed", 1.5),
            ("grid.N", 64.0),
            ("noise.K", True),
            ("scheme.fp_max_iter", "50"),
            ("scheme.dt", "0.01"),
            ("model.lambda", False),
            ("output.dir", 3),
            ("model.lambda", nan),
            ("scheme.dt", inf),
            ("model.epsilon", inf),
            ("model.sigma", nan),
            ("horizon.T", nan),
            ("scheme.fp_tol", nan),
            ("converge.base_dt", inf),
            ("mass.alphas", 0.6),
            ("mass.alphas", ()),
            ("mass.alphas", (True,)),
            ("mass.alphas", ("0.5",)),
        ]:
            with pytest.raises(ValidationError) as info:
                replace(RunConfig(), **{names[key]: value})
            assert info.value.key == key
        # numpy integers are integers, and a float field takes an int
        config = replace(RunConfig(), noise_seed=np.uint64(7), grid_n=np.int64(64), dt=1, horizon_t=10)
        assert (config.noise_seed, config.grid_n, config.dt) == (7, 64, 1)

    def test_default_roundtrip(self):
        text = write_default_config()
        assert parse_config(text) == RunConfig()
        # one line per RunConfig field, each with its own key and a comment
        lines = text.splitlines()[2:]
        assert len(lines) == len(fields(RunConfig))
        keys = set()
        for line in lines:
            assignment, _, comment = line.partition("  # ")
            assert comment.strip()
            assert parse_config(assignment) == RunConfig()
            keys.add(assignment.partition(" = ")[0])
        assert len(keys) == len(lines)


class TestCsv:
    def test_format_value_17_digits(self):
        assert format_value(0.1) == "0.10000000000000001"
        assert float(format_value(np.pi)) == np.pi
        assert format_value(3) == "3"
        assert format_value("x") == "x"

    def test_write_csv_layout(self, tmp_path):
        target = tmp_path / "table.csv"
        write_csv(target, ["time", "alpha", "mass"], [(0.0, 0.6, 1.25), (2.0, 0.6, 1.25)])
        blob = target.read_bytes()
        assert blob == b"time,alpha,mass\n0,0.59999999999999998,1.25\n2,0.59999999999999998,1.25\n"

    def test_empty_rows_header_only(self, tmp_path):
        target = tmp_path / "empty.csv"
        write_csv(target, ["a", "b"], [])
        assert target.read_bytes() == b"a,b\n"

    def test_deterministic_bytes(self, tmp_path):
        rows = [(i * 0.1, float(np.sin(i))) for i in range(20)]
        f1, f2 = tmp_path / "one.csv", tmp_path / "two.csv"
        write_csv(f1, ["t", "v"], rows)
        write_csv(f2, ["t", "v"], rows)
        assert f1.read_bytes() == f2.read_bytes()


class TestSnapshot:
    def test_roundtrip_bit_exact(self, tmp_path):
        grid = build_grid(-20.0, 20.0, 64)
        rng = np.random.default_rng(0)
        field = ComplexField(rng.standard_normal(64) + 1j * rng.standard_normal(64), time=1.25)
        target = tmp_path / "state.sfns"
        write_snapshot(target, field, grid)
        grid2, field2 = read_snapshot(target)
        assert grid2 == grid
        assert field2.time == field.time
        assert np.array_equal(field2.values, field.values)
        second = tmp_path / "copy.sfns"
        write_snapshot(second, field2, grid2)
        assert target.read_bytes() == second.read_bytes()

    def test_header_layout(self, tmp_path):
        grid = build_grid(0.0, 1.0, 4)
        field = ComplexField(np.zeros(4, complex), time=0.5)
        target = tmp_path / "s.sfns"
        write_snapshot(target, field, grid)
        blob = target.read_bytes()
        assert blob[:4] == b"SFNS"
        assert len(blob) == 36 + 16 * 4
        with pytest.raises(DomainError, match="does not match grid N=8"):
            write_snapshot(target, field, build_grid(0.0, 1.0, 8))

    def test_corruption_detected(self, tmp_path):
        bad = tmp_path / "bad.sfns"
        bad.write_bytes(b"XXXX" + b"\0" * 40)
        with pytest.raises(IoError):
            read_snapshot(bad)
        with pytest.raises(IoError):
            read_snapshot(tmp_path / "gone.sfns")
        # well-formed layouts that no writer produces: N = 0, b < a, a NaN payload,
        # a NaN time and an infinite bound
        nan_payload = np.array([0, np.nan, 0, 0], dtype="<c16").tobytes()
        for name, (a, b, n, time), payload in (
            ("empty.sfns", (0.0, 1.0, 0, 0.0), b""),
            ("reversed.sfns", (1.0, 0.0, 4, 0.0), bytes(64)),
            ("nan.sfns", (0.0, 1.0, 4, 0.0), nan_payload),
            ("nan_time.sfns", (0.0, 1.0, 4, np.nan), bytes(64)),
            ("inf_bound.sfns", (-np.inf, 0.0, 4, 0.0), bytes(64)),
        ):
            crafted = tmp_path / name
            crafted.write_bytes(struct.pack("<4sIddId", b"SFNS", 1, a, b, n, time) + payload)
            with pytest.raises(IoError) as info:
                read_snapshot(crafted)
            assert info.value.path == crafted
