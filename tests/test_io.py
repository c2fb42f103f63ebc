import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomtx.device import load_config, paper_device_path
from pomtx.errors import SpectrumFormatError, ValidationError
from pomtx.spectra import ComplexSpectrum, load_spectrum, read_table, save_spectrum, write_table

TWO_PI = 2.0 * np.pi


class TestConfig:
    def test_paper_device_values(self, device):
        assert device.optical.kappa == pytest.approx(TWO_PI * 4.17e9)
        assert device.optical.kappa_e == pytest.approx(TWO_PI * 2.54e9)
        assert device.optical.eta_o == pytest.approx(0.61, abs=0.002)
        assert set(device.mechanical) == {"2.799GHz", "2.790GHz"}
        assert device.mode().g0 == pytest.approx(TWO_PI * 700e3)
        assert device.mode("2.790GHz").gamma_m0 == pytest.approx(TWO_PI * 191e3)
        assert device.c_res == pytest.approx(0.17e-15)
        assert device.k_eff_sq == pytest.approx(1.59e-6)
        assert device.matching.l_match == pytest.approx(180e-9)
        assert device.matching.z_source == 50.0
        assert device.losses.eta_coup == 0.50
        assert device.jitter.loading_penalty == 6.9
        assert device.kinetic is not None

    def test_provenance_map(self):
        model, prov = load_config("paper_device")
        assert prov["optical.kappa_hz"].startswith("config:")
        assert prov["electrical.bvd.c_res_f"].startswith("config:")
        # z_source_ohm is present in the shipped file
        assert prov["electrical.matching.z_source_ohm"].startswith("config:")

    def test_z_source_default_marked(self, tmp_path):
        raw = json.loads(paper_device_path().read_text())
        del raw["electrical"]["matching"]["z_source_ohm"]
        p = tmp_path / "dev.json"
        p.write_text(json.dumps(raw))
        model, prov = load_config(p)
        assert model.matching.z_source == 50.0
        assert prov["electrical.matching.z_source_ohm"] == "default"

    def test_empty_file_is_parse_error(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        with pytest.raises(ValidationError, match="line 1"):
            load_config(p)

    def test_overcoupling_violation_names_field(self, tmp_path):
        raw = json.loads(paper_device_path().read_text())
        raw["optical"]["kappa_e_hz"] = 5.0e9  # exceeds kappa_hz
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="optical.kappa_e_hz"):
            load_config(p)

    def test_all_violations_reported_at_once(self, tmp_path):
        raw = json.loads(paper_device_path().read_text())
        raw["optical"]["kappa_e_hz"] = 5.0e9
        raw["electrical"]["bvd"]["c_res_f"] = -1.0
        raw["losses"]["eta_coup"] = 2.0
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as err:
            load_config(p)
        assert len(err.value.violations) >= 3
        joined = "\n".join(err.value.violations)
        assert "optical.kappa_e_hz" in joined
        assert "electrical.bvd.c_res_f" in joined
        assert "losses.eta_coup" in joined

    def test_inconsistent_kinetic_split_rejected(self, tmp_path):
        raw = json.loads(paper_device_path().read_text())
        raw["electrical"]["kinetic"]["l_geometric_h"] = 100e-9  # 230 nH total vs 180
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="l_match_h"):
            load_config(p)

    def test_jitter_requires_lifetime(self, tmp_path):
        raw = json.loads(paper_device_path().read_text())
        del raw["mechanical"]["2.799GHz"]["tau_energy_s"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="tau_energy_s"):
            load_config(p)

    def test_quiet_config_takes_default_mode_lifetime(self, tmp_path):
        raw = json.loads(paper_device_path().read_text())
        raw["jitter"]["distribution"] = "none"
        p = tmp_path / "quiet.json"
        p.write_text(json.dumps(raw))
        model, _ = load_config(p)
        assert model.jitter.is_quiet
        assert model.jitter.intrinsic_gamma == 1.0 / model.mode().tau_energy

    @pytest.mark.parametrize("cell", [0, 1])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_noise_table_cell_rejected(self, tmp_path, cell, value):
        # the schema admits any number here; the loader is stricter
        raw = json.loads(paper_device_path().read_text())
        raw["noise_table"][1][cell] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as err:
            load_config(p)
        assert err.value.violations == [f"noise_table[1][{cell}]: must be finite"]

    def test_non_finite_noise_table_cell_fails_budget(self, tmp_path, monkeypatch, capsys):
        from pomtx.cli import main

        raw = json.loads(paper_device_path().read_text())
        raw["noise_table"][1] = [4e-14, float("inf")]
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert main(["budget", "--config", "bad.json", "--out", "b.json"]) == 3
        assert "noise_table[1][1]: must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.json")

    def test_config_dir_env(self, tmp_path, monkeypatch):
        target = tmp_path / "mydev.json"
        target.write_text(paper_device_path().read_text())
        monkeypatch.setenv("POMTX_CONFIG_DIR", str(tmp_path))
        model, _ = load_config("mydev")
        assert model.name == "paper_device"


# every field of the shipped config that load_config marks in its provenance map
SHIPPED_FIELDS = (
    *(f"optical.{k}" for k in ("freq_hz", "kappa_hz", "kappa_e_hz")),
    *(f"mechanical.2.799GHz.{k}" for k in ("freq_hz", "gamma_hz", "g0_hz", "tau_energy_s")),
    *(f"mechanical.2.790GHz.{k}" for k in ("freq_hz", "gamma_hz", "g0_hz")),
    "default_mode",
    "electrical.bvd.c_res_f",
    "electrical.bvd.k_eff_sq",
    *(f"electrical.matching.{k}" for k in ("l_match_h", "c_match_f", "r_loss_ohm",
                                           "z_source_ohm")),
    *(f"electrical.kinetic.{k}" for k in ("l_geometric_h", "l_kinetic_0_h", "t_c_k")),
    *(f"losses.{k}" for k in ("eta_coup", "eta_chain", "mw_line_attenuation_db")),
    *(f"jitter.{k}" for k in ("distribution", "sigma_hz", "line_fwhm_hz", "loading_window_s",
                              "loading_penalty")),
    *(f"pulse.{k}" for k in ("mw_duration_s", "trace_duration_s", "optical_energy_j",
                             "optical_length_s", "repetition_period_s")),
    "noise_table",
)


class TestConfigContract:
    """load_config states the shipped schema's field rules, and only the
    loader's own rules (cross-field and finiteness) on top."""

    def test_complete_provenance_map(self, tmp_path):
        src = f"config:{paper_device_path()}"
        _, prov = load_config("paper_device")
        assert prov == {k: src for k in SHIPPED_FIELDS}

        raw = json.loads(paper_device_path().read_text())
        del raw["electrical"]["matching"]["r_loss_ohm"]
        del raw["electrical"]["matching"]["z_source_ohm"]
        p = tmp_path / "dev.json"
        p.write_text(json.dumps(raw))
        model, prov = load_config(p)
        defaults = {"electrical.matching.r_loss_ohm", "electrical.matching.z_source_ohm"}
        assert prov == {k: "default" if k in defaults else f"config:{p}"
                        for k in SHIPPED_FIELDS}
        assert (model.matching.r_loss, model.matching.z_source) == (0.0, 50.0)

    @pytest.mark.parametrize("name", [0, True, None, ["dev"]])
    def test_non_string_name_is_a_violation(self, tmp_path, name):
        raw = json.loads(paper_device_path().read_text())
        raw["name"] = name
        p = tmp_path / "dev.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as err:
            load_config(p)
        assert [v.split(":")[0] for v in err.value.violations] == ["name"]


def _field_paths(node, prefix=()):
    """Every key and list index of a parsed config, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, (*prefix, key))


def _dotted(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


SHIPPED = json.loads(paper_device_path().read_text())
DELETE = object()
# violations of the loader's own rules, which the schema cannot state
LOADER_RULES = ("must be finite", "exceeds total linewidth", "is not a defined mechanical mode",
                "within 1%", "required when jitter is enabled", "strictly increasing")


@pytest.fixture(scope="module")
def schema_validator():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        paper_device_path().with_name("device_config.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(path=st.sampled_from(list(_field_paths(SHIPPED))),
       value=st.sampled_from([0, -1, 2, 1e-20, "x", True, None, float("inf"), DELETE]))
def test_single_field_verdict_matches_jsonschema(schema_validator, tmp_path_factory, path,
                                                 value):
    raw = json.loads(json.dumps(SHIPPED))
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    p = tmp_path_factory.mktemp("mutated") / "dev.json"
    p.write_text(json.dumps(raw))
    try:
        load_config(p)
        violations = []
    except ValidationError as err:
        violations = err.violations
    field_level = [v for v in violations if not any(rule in v for rule in LOADER_RULES)]
    assert bool(field_level) == (not schema_validator.is_valid(raw)), violations
    # each field-level violation names the mutated field, one of its parents or children
    target = _dotted(path)
    for v in field_level:
        where = v.split(": ")[0]
        assert target.startswith(where) or where.startswith(target), (target, v)


def per_cell_table(header, columns) -> str:
    """A table's CSV text formatted cell by cell from numpy scalars."""
    columns = [np.asarray(c) for c in columns]
    rows = [",".join("%.17g" % c[i] for c in columns) for i in range(columns[0].size)]
    return "\n".join([",".join(header), *rows]) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308]
CELLS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))


def table_columns(n):
    floats = st.lists(CELLS, min_size=n, max_size=n).map(np.array)
    ints = st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.int64))
    return st.lists(st.one_of(floats, ints), min_size=1, max_size=4)


class TestSpectrumIO:
    def test_three_row_round_trip(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("freq_hz,re,im\n1e9,0.5,-0.25\n2e9,0.25,0.0\n3e9,-1.0,0.125\n")
        spec = load_spectrum(p)
        assert len(spec) == 3
        assert spec.kind == "complex"
        assert spec.values[0] == 0.5 - 0.25j

    def test_write_read_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        freq = np.sort(rng.uniform(1e9, 10e9, 64))
        vals = rng.normal(size=64) + 1j * rng.normal(size=64)
        spec = ComplexSpectrum(freq_hz=freq, values=vals, kind="complex")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_spectrum(p1, spec)
        again = load_spectrum(p1)
        assert np.array_equal(again.freq_hz, freq)
        assert np.array_equal(again.values, vals)
        save_spectrum(p2, again)
        assert p1.read_text() == p2.read_text()

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(columns=st.integers(0, 12).flatmap(table_columns))
    def test_write_table_matches_per_cell_formatting(self, tmp_path_factory, columns):
        # -0.0, subnormals, +-1e308, nan, inf and int64 columns format as before
        header = [f"c{k}" for k in range(len(columns))]
        path = tmp_path_factory.mktemp("table") / "t.csv"
        write_table(path, header, columns)
        assert path.read_text() == per_cell_table(header, columns)

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
    def test_write_table_blocks_join_seamlessly(self, tmp_path, n):
        rng = np.random.default_rng(n)
        floats = rng.choice(EDGE_FLOATS + list(rng.normal(size=32)), size=n)
        columns = [floats, np.arange(n), rng.normal(size=n) * 1e-300]
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b", "c"], columns)
        assert path.read_text() == per_cell_table(["a", "b", "c"], columns)

    def test_decreasing_frequency_rejected_with_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("freq_hz,mag\n1e9,0.5\n3e9,0.25\n2e9,1.0\n")
        with pytest.raises(SpectrumFormatError, match="row 3"):
            load_spectrum(p)

    def test_non_numeric_cell_rejected_with_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("freq_hz,mag\n1e9,0.5\n2e9,oops\n")
        with pytest.raises(SpectrumFormatError, match="row 2"):
            load_spectrum(p)

    def test_unknown_header_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("hz,val\n1e9,0.5\n")
        with pytest.raises(SpectrumFormatError, match="header"):
            load_spectrum(p)

    def test_mag_phase_and_sigma_schema(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(
            "freq_hz,mag,phase_deg,sigma\n1e9,1.0,0.0,0.1\n2e9,0.5,90.0,0.1\n"
        )
        spec = load_spectrum(p)
        assert spec.kind == "mag_phase"
        assert spec.values[1] == pytest.approx(0.5j)
        assert spec.sigma is not None

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("")
        with pytest.raises(SpectrumFormatError, match="empty"):
            load_spectrum(p)

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("n_c,gamma_hz\n\n", "no data rows"),
        ("n_c,gamma_hz\n10,67000\n100\n", "row 2: expected 2 cells, got 1"),
        ("n_c,gamma_hz\n10,67000\n100,inf\n", "row 2: non-finite 'gamma_hz' cell"),
    ])
    def test_both_readers_share_row_checks(self, tmp_path, text, message):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(SpectrumFormatError, match=message):
            read_table(p, ("n_c", "gamma_hz"))
        p.write_text(text.replace("n_c,gamma_hz", "freq_hz,mag"))
        with pytest.raises(SpectrumFormatError, match=message.replace("gamma_hz", "mag")):
            load_spectrum(p)

    def test_read_table_header_check(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("n_c,gamma_hz\n10,67000\n100,70000\n")
        arr = read_table(p, ("n_c", "gamma_hz"))
        assert arr.shape == (2, 2)
        with pytest.raises(SpectrumFormatError, match="header"):
            read_table(p, ("a", "b"))
