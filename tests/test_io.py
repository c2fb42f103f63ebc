import json

import numpy as np
import pytest

from pomtx.device import load_config, paper_device_path
from pomtx.errors import SpectrumFormatError, ValidationError
from pomtx.spectra import ComplexSpectrum, load_spectrum, read_table, save_spectrum

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

    def test_round_trip_serialization(self, device, tmp_path):
        p = tmp_path / "echo.json"
        p.write_text(json.dumps(device.to_dict()))
        again, _ = load_config(p)
        assert again.optical == device.optical
        assert again.mechanical == device.mechanical
        assert again.matching == device.matching
        assert again.kinetic == device.kinetic
        assert again.jitter == device.jitter
        assert again.losses == device.losses
        assert again.noise_table == device.noise_table

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

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.json")

    def test_config_dir_env(self, tmp_path, monkeypatch):
        target = tmp_path / "mydev.json"
        target.write_text(paper_device_path().read_text())
        monkeypatch.setenv("POMTX_CONFIG_DIR", str(tmp_path))
        model, _ = load_config("mydev")
        assert model.name == "paper_device"


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
