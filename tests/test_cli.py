import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robwit
from robwit import certify, cli, linalg, maps, states, witnesses

from conftest import NOT_UNITARY


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_matrix(tmp_path, m, name="v.json") -> str:
    """file: spec of ``m`` written as a JSON matrix payload (NaN and inf as NaN, Infinity)."""
    path = tmp_path / name
    path.write_text(json.dumps(cli.matrix_to_payload(m)))
    return f"file:{path}"


def assert_same_text(got: str, want: str) -> None:
    """got == want, reported at the first differing offset."""
    if got != want:  # pytest's own diff of texts of a few megabytes would not finish
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts of {len(got)} and {len(want)} characters differ from offset {at}: "
                    f"{got[at:at + 60]!r} vs {want[at:at + 60]!r}")


def fresh_env() -> dict:
    """The environment, with the sources of the robwit under test first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(robwit.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def write_v_with(tmp_path, value) -> str:
    """file: spec of a 4x4 unitary with one entry replaced by ``value``."""
    v = maps.random_unitary(4, seed=1)
    v[0, 0] = value
    return write_matrix(tmp_path, v)


class TestMatrixSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = cli.matrix_from_payload(json.loads(json.dumps(cli.matrix_to_payload(m))))
        np.testing.assert_array_equal(back, m)

    def test_rejects_inconsistent_payload(self):
        with pytest.raises(ValueError, match="disagree"):
            cli.matrix_from_payload({"d": 3, "rows": [[[1.0, 0.0]]]})

    @pytest.mark.parametrize("payload", [{"d": 2, "rows": 5}, {"d": 1, "rows": [[1.0]]},
                                         {"rows": []}, [1, 2], {"d": "two", "rows": []}])
    def test_rejects_malformed_payload(self, payload):
        with pytest.raises(ValueError, match="malformed"):
            cli.matrix_from_payload(payload)

    @pytest.mark.parametrize("d", ["1e400", "1.5", "1.0", "true"])
    def test_rejects_a_d_that_is_no_integer(self, d):
        # 1e400 parses as inf, which int() cannot convert; 1.5 would be truncated to the rows' 1
        with pytest.raises(ValueError, match="malformed matrix payload.*d must be an integer"):
            cli.matrix_from_payload(json.loads(f'{{"d": {d}, "rows": [[[1.0, 0.0]]]}}'))

    @pytest.mark.parametrize("entry", [[0, True], [False, 0.5], [1.0, False]])
    def test_rejects_a_bool_entry(self, entry):
        # complex() would read true as 1 and false as 0
        with pytest.raises(ValueError, match="malformed matrix payload.*got a bool"):
            cli.matrix_from_payload({"d": 2, "rows": [[[0.0, 0.0], entry], [[1.0, 0.0], [0.0, 0.0]]]})

    @pytest.mark.parametrize("command", ["certify", "build"])
    @pytest.mark.parametrize("flags", [["--u"], ["--v2", "seed:2", "--v1"], ["--v1", "seed:1", "--v2"]],
                             ids=["u", "v1", "v2"])
    def test_a_file_with_a_bool_entry_exits_2(self, capsys, tmp_path, command, flags):
        # sigma_y (U) and I_2 (x) sigma_y (V) with each +i written [0, true]: read as 1j, both would pass
        matrix = maps.SIGMA_Y if flags == ["--u"] else np.kron(np.eye(2), maps.SIGMA_Y)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cli.matrix_to_payload(matrix)).replace("[0.0, 1.0]", "[0, true]"))
        code, out, err = run(capsys, command, "--n", "1", *flags, f"file:{path}")
        assert code == 2 and out == ""
        assert err.startswith("error: malformed matrix payload") and "got a bool" in err

    @pytest.mark.parametrize("command", ["build", "spectrum", "curve", "certify"])
    @pytest.mark.parametrize("flags", [["--u"], ["--v2", "seed:2", "--v1"]], ids=["u", "v1"])
    def test_a_file_with_an_integer_beyond_float_range_exits_2(self, capsys, tmp_path, command, flags):
        # json reads 1 followed by 400 zeros as a Python int, which complex() cannot convert: a malformed
        # payload, not an OverflowError traceback
        matrix = maps.SIGMA_Y if flags == ["--u"] else np.kron(np.eye(2), maps.SIGMA_Y)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cli.matrix_to_payload(matrix)).replace("[0.0, 1.0]", f"[0, {10 ** 400}]"))
        code, out, err = run(capsys, command, "--n", "1", *flags, f"file:{path}")
        assert (code, out) == (2, "")
        assert err == ("error: malformed matrix payload, expected {d, rows: [[[re, im], ...], ...]}: "
                       "int too large to convert to float\n")

    @pytest.mark.parametrize("command", ["build", "spectrum", "curve", "certify"])
    def test_a_file_nested_too_deeply_exits_2(self, capsys, tmp_path, command):
        # 100,000 nested arrays exhaust the JSON decoder's recursion limit: a malformed payload, not a RecursionError
        path = tmp_path / "m.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, command, "--n", "1", "--u", f"file:{path}")
        assert (code, out) == (2, "")
        assert err == "error: malformed matrix payload: nested too deeply to decode\n"

    @pytest.mark.parametrize("command", ["certify", "build"])
    @pytest.mark.parametrize("flags", [["--u"], ["--v2", "seed:2", "--v1"], ["--v1", "seed:1", "--v2"]],
                             ids=["u", "v1", "v2"])
    @pytest.mark.parametrize("d", ["1e400", "{}.5"], ids=["overflow", "fraction"])
    def test_a_file_whose_d_is_no_integer_exits_2(self, capsys, tmp_path, command, flags, d):
        # a valid matrix whose d is 1e400 or its size plus 0.5: a malformed payload, not a traceback or a pass
        matrix = maps.random_antisymmetric_unitary(1, 5) if flags == ["--u"] else maps.random_unitary(4, seed=1)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**cli.matrix_to_payload(matrix), "d": 0}).replace(
            '"d": 0', f'"d": {d.format(len(matrix))}'))
        code, out, err = run(capsys, command, "--n", "1", *flags, f"file:{path}")
        assert code == 2 and out == ""
        assert err.startswith("error: malformed matrix payload") and "d must be an integer" in err


class TestBuild:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "build", "--n", "1", "--u", "canonical", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "PhiU4N"
        assert payload["d"] == 16
        w = cli.matrix_from_payload(payload)
        assert np.max(np.abs(w - w.conj().T)) <= 1e-12
        assert complex(np.trace(w)).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("conjugation", [[], ["--v1", "seed:1", "--v2", "seed:2"]],
                             ids=["plain", "conjugated"])
    def test_json_is_compact_and_exact(self, capsys, conjugation):
        code, out, _ = run(capsys, "build", "--n", "2", "--u", "seed:3", *conjugation, "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
        m = cli.resolve_map(cli.make_parser().parse_args(["build", "--n", "2", "--u", "seed:3", *conjugation]))
        np.testing.assert_array_equal(cli.matrix_from_payload(payload), witnesses.choi(m).matrix)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("conjugation", [[], ["--v1", "seed:1", "--v2", "seed:2"]],
                             ids=["plain", "conjugated"])
    def test_json_equals_the_encoded_payload(self, capsys, n, conjugation):
        # the old path, json.dumps of matrix_to_payload with the other members, is the oracle, byte for byte
        argv = ["--n", str(n), "--u", "seed:3", *conjugation]
        code, out, _ = run(capsys, "build", *argv, "--output", "json")
        assert code == 0
        m = cli.resolve_map(cli.make_parser().parse_args(["build", *argv]))
        members = {"family": m.family, "n": n, "u": "seed:3", **dict(zip(["v1", "v2"], conjugation[1::2]))}
        oracle = json.dumps({**members, **cli.matrix_to_payload(witnesses.choi(m).matrix)},
                            separators=(",", ":"), sort_keys=True)
        assert_same_text(out, oracle + "\n")

    def test_json_keeps_every_bit_pattern(self):
        # -0.0 and 0.0 are equal values with distinct bit patterns: an encoder that dedupes values merges them;
        # json writes NaN and Infinity where repr writes nan and inf
        m = np.zeros((3, 3), dtype=complex)
        m.real = [[-0.0, 0.0, 5e-324], [1e-05, 1e16, -1e22], [-5e-324, np.nan, -0.0]]
        m.imag = [[0.0, -0.0, 1e16], [-0.0, 0.0, 5e-324], [np.inf, -1e22, -np.inf]]
        # x and -x share a magnitude, and so one text; a NaN with its sign bit set is NaN, as json writes it
        signed = np.zeros((3, 3), dtype=complex)
        signed.real = [[1.5, -1.5, np.copysign(np.nan, -1.0)], [-np.inf, -5e-324, 0.0], [-0.0, 0.1, 2.5e-308]]
        signed.imag = [[-0.1, 0.1, -0.0], [np.nan, 1e22, -1e22], [5e-324, np.inf, -2.2250738585072014e-308]]
        assert np.signbit(signed.real[0, 2])
        members = {"family": "PhiU4N", "n": 1, "u": "canonical", "v1": "seed:1", "v2": "seed:2"}
        texts = []
        for matrix in (m, signed):
            texts.append("".join(cli.json_chunks(members, matrix)))
            oracle = json.dumps({**members, **cli.matrix_to_payload(matrix)}, separators=(",", ":"), sort_keys=True)
            assert_same_text(texts[-1], oracle)
        assert '"rows":[[[-0.0,0.0],[0.0,-0.0],[5e-324,1e+16]],[[1e-05,-0.0],[1e+16,0.0],' in texts[0]
        assert '"rows":[[[1.5,-0.1],[-1.5,0.1],[NaN,-0.0]],[[-Infinity,NaN],' in texts[1]

    def test_out_path_holds_stdout_without_its_newline(self, capsys, tmp_path):
        argv = ["build", "--n", "2", "--u", "seed:3", "--v1", "seed:1", "--v2", "seed:2", "--output", "json"]
        code, out, _ = run(capsys, *argv)
        target = tmp_path / "witness.json"
        assert run(capsys, *argv, "--out-path", str(target)) == (0, "", "")
        assert code == 0 and out.endswith("}\n")
        assert_same_text(target.read_text(encoding="utf-8"), out[:-1])

    @pytest.mark.parametrize("argv", [["certify", "--n", "3", "--v1", "seed:1", "--v2", "seed:2", "--output", "json"],
                                      ["build", "--n", "3", "--u", "seed:3", "--v1", "seed:1", "--v2", "seed:2",
                                       "--output", "json"]], ids=["certify", "build"])
    def test_peak_memory_within_size_guard(self, argv):
        # a cold conjugated certify is the costliest command at small N, then a conjugated JSON build; each
        # runs in a fresh process, as the first certify of a process allocates more than later ones.  main's
        # guard refuses the request one byte below its estimate, and admits it at the estimate, which its
        # traced peak stays within
        script = ("import os, sys, tracemalloc\nfrom robwit import cli\n"
                  "need = cli.peak_estimate(cli.make_parser().parse_args(sys.argv[1:]))[0]\n"
                  "os.sysconf = {'SC_PHYS_PAGES': need - 1, 'SC_PAGE_SIZE': 1}.__getitem__\n"
                  "refused = cli.main(sys.argv[1:])\n"
                  "os.sysconf = {'SC_PHYS_PAGES': need, 'SC_PAGE_SIZE': 1}.__getitem__\n"
                  "tracemalloc.start()\ncode = cli.main(sys.argv[1:])\n"
                  "print(refused, code, need, tracemalloc.get_traced_memory()[1], file=sys.stderr)")
        done = subprocess.run([sys.executable, "-c", script, *argv], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, env=fresh_env(), timeout=300)
        assert done.returncode == 0, done.stderr
        refused, code, need, peak = map(int, done.stderr.split()[-4:])
        assert (refused, code) == (2, 0), done.stderr
        assert need == cli.PEAK_W_ARRAYS * 16 * 12 ** 4
        assert peak <= need, f"peak {peak / (16 * 12 ** 4):.2f} W-sized arrays"

    def test_seeded_u_dimension(self, capsys):
        code, out, _ = run(capsys, "build", "--n", "2", "--u", "seed:7")
        assert code == 0
        assert json.loads(out)["d"] == 64

    def test_rejects_n_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["build", "--n", "0"])
        assert exc.value.code == 2

    def test_rejects_bad_u_spec(self, capsys):
        code, _, err = run(capsys, "build", "--n", "1", "--u", "banana")
        assert code == 2
        assert "unrecognized U spec" in err

    def test_rejects_csv_output(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["build", "--n", "1", "--output", "csv"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_out_path(self, capsys, tmp_path):
        target = tmp_path / "witness.json"
        code, out, _ = run(capsys, "build", "--n", "1", "--out-path", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["family"] == "PhiU4N"

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "build", "--n", "1", "--output", "text")
        assert code == 0
        assert "family: PhiU4N" in out and "min eigenvalue: -0.25" in out


class TestSizeGuard:
    """The one memory guard of ``main``: a refused request is one ``error:`` line, exit 2, before any W is built."""

    MEMORY = 2 ** 34  # bytes of physical memory each test reads, printed as 17.2 GB

    @pytest.fixture(autouse=True)
    def no_witness(self, monkeypatch):
        # a tree without the guard fails here instead of allocating a huge W or W_p; an admitted request
        # stops here too, so a test sees the guard's verdict without building anything
        for name in ("choi", "plain_choi"):
            def refuse(m, name=name):
                raise AssertionError(f"witnesses.{name} was reached")

            monkeypatch.setattr(witnesses, name, refuse)
        self.set_memory(monkeypatch, self.MEMORY)

    @staticmethod
    def set_memory(monkeypatch, memory):
        monkeypatch.setattr(cli.os, "sysconf", {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}.__getitem__)

    @staticmethod
    def admitted(argv):
        """True when ``main`` passes ``argv`` through its guard: the request goes on to build W."""
        with pytest.raises(AssertionError, match="was reached"):
            cli.main(argv)
        return True

    @staticmethod
    def refusal(capsys, argv) -> str:
        """The one stderr line of a request refused with exit 2 and an empty stdout."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), err
        assert err.count("\n") == 1 and err.startswith("error: ") and err.endswith("GB of physical memory\n")
        return err

    @pytest.mark.parametrize("command", ["build", "certify", "curve", "spectrum"])
    def test_refuses_huge_n_before_allocating(self, capsys, command):
        # PEAK_W_ARRAYS * 16 * 400^4 bytes = 5734.4 GB; curve adds its 11 default points
        what = "N=100 with a curve of 11 points" if command == "curve" else "N=100"
        assert self.refusal(capsys, [command, "--n", "100"]) == (
            f"error: {what} needs an estimated 5.734e+3 GB, more than the 17.2 GB of physical memory\n")

    @pytest.mark.parametrize("command", ["build", "certify", "curve", "spectrum"])
    @pytest.mark.parametrize("digits", [20, 81, 301])
    def test_refuses_an_n_too_large_for_a_float_in_one_line(self, capsys, command, digits):
        # the estimate (4N)^4 bytes overflows a float from N ~ 1e76 on; it is a usage error, not a traceback.
        # PEAK_W_ARRAYS * 16 * 4^4 = 57344 bytes per N^4
        n = 10 ** (digits - 1)
        what = f"N={n} with a curve of 11 points" if command == "curve" else f"N={n}"
        assert self.refusal(capsys, [command, "--n", str(n)]) == (
            f"error: {what} needs an estimated 5.734e+{4 * (digits - 1) - 5} GB, "
            f"more than the 17.2 GB of physical memory\n")

    @pytest.mark.parametrize("points,gb", [(10 ** 13, "4.000e+6"), (10 ** 100, "4.000e+93")])
    def test_refuses_huge_points_in_one_line(self, capsys, points, gb):
        # numpy's grid of 1e13 points once failed with an _ArrayMemoryError traceback and exit 1
        assert self.refusal(capsys, ["curve", "--n", "1", "--points", str(points)]) == (
            f"error: N=1 with a curve of {points} points needs an estimated {gb} GB, "
            f"more than the 17.2 GB of physical memory\n")

    def test_bound_follows_physical_memory(self, capsys, monkeypatch):
        # physical memory set to exactly the estimate at N=2: N=2 fits, N=3 does not
        self.set_memory(monkeypatch, cli.PEAK_W_ARRAYS * 16 * 8 ** 4)
        assert self.admitted(["spectrum", "--n", "2"])
        # an estimate under 1 GB is printed with a negative exponent (it once read "4.645e+-3")
        assert self.refusal(capsys, ["spectrum", "--n", "3"]) == (
            "error: N=3 needs an estimated 4.645e-3 GB, more than the 0.0 GB of physical memory\n")

    def test_points_bound_follows_physical_memory(self, capsys, monkeypatch):
        # physical memory set to exactly the estimate of N=1 with 11 points: 11 fit, 12 do not
        self.set_memory(monkeypatch, cli.PEAK_W_ARRAYS * 16 * 4 ** 4 + cli.PEAK_POINT_BYTES * 11)
        assert self.admitted(["curve", "--n", "1", "--points", "11"])
        assert self.refusal(capsys, ["curve", "--n", "1", "--points", "12"]).startswith(
            "error: N=1 with a curve of 12 points needs an estimated")

    def test_curve_bounds_both_estimates_at_once(self, capsys, monkeypatch):
        # physical memory set to exactly the estimate at N=2 plus 11 points: N=2 alone fits, but curve holds
        # W and its table at once, so 12 points are refused in one line, before any W is built
        self.set_memory(monkeypatch, cli.PEAK_W_ARRAYS * 16 * 8 ** 4 + cli.PEAK_POINT_BYTES * 11)
        assert self.admitted(["spectrum", "--n", "2"])
        assert self.admitted(["curve", "--n", "2", "--points", "11"])
        assert self.refusal(capsys, ["curve", "--n", "2", "--points", "12"]).startswith(
            "error: N=2 with a curve of 12 points needs an estimated")

    def test_refuses_before_reading_a_u_file(self, capsys, tmp_path):
        # the guard reads the parsed request only: a request too large is refused before its U spec is resolved
        err = self.refusal(capsys, ["certify", "--n", "100", "--u", f"file:{tmp_path / 'missing.json'}"])
        assert err.startswith("error: N=100 needs an estimated")


@pytest.mark.parametrize("command", ["build", "certify", "curve", "spectrum"])
def test_seed_is_not_an_option(capsys, command):
    # positivity's sample has one fixed stream, witnesses.POSITIVITY_SEED: its seed is no parameter of a claim
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--n", "1", "--seed", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 1" in err and "Traceback" not in err


class TestCertify:
    def test_text_all_pass(self, capsys):
        code, out, _ = run(capsys, "certify", "--n", "1", "--u", "canonical")
        assert code == 0
        assert "verdict: pass (8/8 checks passed)" in out
        assert "-0.003125" in out

    def test_json_shape_and_determinism(self, capsys):
        code1, out1, _ = run(capsys, "certify", "--n", "1", "--output", "json")
        code2, out2, _ = run(capsys, "certify", "--n", "1", "--output", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert out1 == json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
        assert sorted(payload) == ["checks", "d", "family", "n", "verdict"]
        assert payload["verdict"] == "pass"
        assert [c["name"] for c in payload["checks"]] == list(certify.SUITE_CHECKS)
        assert all(c["verdict"] == "pass" for c in payload["checks"])

    def test_n2_seeded_u(self, capsys):
        code, out, _ = run(capsys, "certify", "--n", "2", "--u", "seed:3")
        assert code == 0
        assert "verdict: pass (8/8 checks passed)" in out

    def test_conjugated_family(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--n", "1", "--u", "canonical", "--v1", "seed:1", "--v2", "seed:2"
        )
        assert code == 0
        assert "verdict: pass" in out

    def test_one_contraction_per_warm_request(self, capsys, monkeypatch):
        # once W(U0) of the N is warm, a request contracts W once, into W' = S^dagger W S, and
        # takes no SVD of a (4N)^2-sized matrix: the realignment norm is the base's
        n, dsq = 2, 64
        witnesses.canonical_witness.cache_clear()
        assert run(capsys, "certify", "--n", str(n), "--u", "seed:3")[0] == 0
        contractions, svds = [], []
        contract, svd = linalg.local_conjugate, np.linalg.svd
        for module in (linalg, maps, witnesses, states, certify):  # under every name the package binds
            if hasattr(module, "local_conjugate"):
                monkeypatch.setattr(module, "local_conjugate", lambda *a: contractions.append(a[0].shape) or contract(*a))
        monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: svds.append(np.shape(m)) or svd(m, *a, **k))
        for conjugation in ([], ["--v1", "seed:4", "--v2", "seed:6"]):
            for u in ("canonical", "seed:5"):
                contractions.clear()
                assert run(capsys, "certify", "--n", str(n), "--u", u, *conjugation)[0] == 0
                assert contractions == [(dsq, dsq)]
                assert not any(dsq in shape for shape in svds)

    def test_lone_v1_rejected(self, capsys):
        code, _, err = run(capsys, "certify", "--n", "1", "--v1", "seed:1")
        assert code == 2
        assert "together" in err

    def test_u_from_file(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(cli.matrix_to_payload(maps.random_antisymmetric_unitary(1, 5))))
        code, out, _ = run(capsys, "certify", "--n", "1", "--u", f"file:{path}")
        assert code == 0
        assert "verdict: pass" in out

    def test_rejects_malformed_u_file(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"d": 2, "rows": 5}))
        code, _, err = run(capsys, "certify", "--n", "1", "--u", f"file:{path}")
        assert code == 2
        assert "malformed matrix payload" in err

    def test_rejects_invalid_u_file(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(cli.matrix_to_payload(np.eye(2))))
        code, _, err = run(capsys, "certify", "--n", "1", "--u", f"file:{path}")
        assert code == 2
        assert "antisymmetric" in err

    def test_rejects_a_contraction_u_file(self, capsys, tmp_path):
        # Phi_U accepts 0.5 sigma_y, as do build and curve; every certificate reads W(U0) and needs a unitary U
        spec = write_matrix(tmp_path, 0.5 * maps.SIGMA_Y)
        code, out, err = run(capsys, "certify", "--n", "1", "--u", spec)
        assert code == 2 and out == ""
        assert err == f"error: {NOT_UNITARY}\n"
        assert [run(capsys, command, "--n", "1", "--u", spec)[0] for command in ("build", "curve")] == [0, 0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["build", "spectrum", "curve", "certify"])
    @pytest.mark.parametrize("flags,matrix,message", [
        (["--u"], 1e160 * maps.SIGMA_Y, "U must be antisymmetric with U U^dagger <= I"),
        (["--u"], 1e154 * maps.SIGMA_Y, "U must be antisymmetric with U U^dagger <= I"),
        (["--u"], 1e308 * np.eye(2), "U must be antisymmetric with U U^dagger <= I"),
        (["--v2", "seed:2", "--v1"], 1e200 * np.eye(4), "V1 is not unitary: max|V^dagger V - I| = inf"),
    ], ids=["u-1e160-sigma-y", "u-1e154-sigma-y", "u-1e308-identity", "v1-1e200-identity"])
    def test_rejects_a_u_file_whose_gram_matrix_overflows(self, capsys, tmp_path, command, flags, matrix, message):
        # each file is finite, but U U^dagger, U + U^T or V1^dagger V1 overflows, or U U^dagger = 1e308 I is finite
        # and twice it is not: the check rejects it without a RuntimeWarning (build, spectrum and curve once wrote
        # NaN from 1e160 sigma_y, exit 0)
        spec = write_matrix(tmp_path, matrix)
        code, out, err = run(capsys, command, "--n", "1", *flags, spec)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("n", [1, 4])
    def test_a_u_at_the_margin_fails_positivity_through_its_premises(self, capsys, tmp_path, n):
        # U0 + 4e-13 I is an antisymmetric unitary entrywise within 1e-12, so it is certified through W(U0);
        # its premise bounds in the 2-norm, 1.6e-12 and 2.8e-12, fail positivity: a failed check, exit 1
        spec = write_matrix(tmp_path, maps.canonical_u0(n) + 4e-13 * np.eye(2 * n))
        code, out, _ = run(capsys, "certify", "--n", str(n), "--u", spec, "--output", "json")
        positivity = json.loads(out)["checks"][0]
        assert code == 1 and positivity["name"] == "positivity" and positivity["verdict"] == "fail"
        assert "proof-identity defect 1.60e-12, Schur defect 2.80e-12," in positivity["details"]

    @pytest.mark.parametrize("flags,matrix,message", [
        (["--u"], maps.random_antisymmetric_unitary(2, 5), "U must be 2x2 for N=1"),
        (["--v2", "seed:2", "--v1"], 2 * maps.random_unitary(4, seed=1), "V1 is not unitary"),
        (["--v1", "seed:1", "--v2"], maps.random_unitary(8, seed=1), "V2 must be 4x4 for N=1, got (8, 8)"),
        (["--v2", "seed:2", "--v1"], maps.random_unitary(8, seed=1), "V1 must be 4x4 for N=1, got (8, 8)"),
    ], ids=["u-wrong-size", "v-not-unitary", "v-wrong-size", "v1-wrong-size"])
    def test_rejects_invalid_matrix_file(self, capsys, tmp_path, flags, matrix, message):
        # the map constructor validates a file matrix; the CLI reports its message
        code, out, err = run(capsys, "certify", "--n", "1", *flags, write_matrix(tmp_path, matrix))
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_v_file(self, capsys, tmp_path, value):
        spec = write_v_with(tmp_path, value)
        code, out, err = run(capsys, "certify", "--n", "1", "--v1", spec, "--v2", "seed:2")
        assert code == 2 and out == ""
        assert "malformed matrix payload" in err

    def test_tolerance_override_loose(self, capsys):
        code, _, _ = run(capsys, "certify", "--n", "1", "--tol", "spectrum=1e-3")
        assert code == 0

    def test_tolerance_override_forces_failure(self, capsys):
        # the bisected threshold sits ~3e-10 below the closed form by design,
        # so an absurdly tight tolerance must flip the check and the exit code
        code, out, _ = run(capsys, "certify", "--n", "1", "--tol", "spa-threshold=1e-15")
        assert code == 1
        assert "verdict: fail" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_rejects_non_finite_or_negative_tolerance(self, capsys, value):
        code, out, err = run(capsys, "certify", "--n", "1", "--tol", f"spectrum={value}")
        assert code == 2
        assert "finite non-negative" in err and out == ""

    def test_tolerance_that_is_no_number(self, capsys):
        # float() alone said "could not convert string to float: 'abc'", naming neither --tol nor the check
        code, out, err = run(capsys, "certify", "--n", "1", "--tol", "spectrum=abc")
        assert code == 2 and out == ""
        assert err == "error: --tol spectrum must be a finite non-negative number, got 'abc'\n"

    def test_unknown_tolerance_name(self, capsys):
        # certify.run_full_suite alone checks the names; its one line lists the valid ones
        code, out, err = run(capsys, "certify", "--n", "1", "--tol", "bogus=1")
        assert code == 2 and out == ""
        assert err == (f"error: unknown check names in tolerance overrides: ['bogus']; "
                       f"valid: {', '.join(certify.SUITE_CHECKS)}\n")


class TestCurve:
    def test_csv_content(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        assert all(float(r["abs_difference"]) < 1e-12 for r in rows)
        values = [float(r["closed_form"]) for r in rows]
        assert values[7] < 0 < values[9]  # sign change between 0.7 and 0.9
        assert abs(float(rows[8]["closed_form"])) < 1e-12  # zero at 0.8

    def test_n2_crossing(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "2", "--points", "10")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        signs = [float(r["closed_form"]) for r in rows]
        crossing = 8 / 9
        for row in rows:
            lam = float(row["lambda"])
            if lam < crossing - 1e-9:
                assert float(row["closed_form"]) < 0
            elif lam > crossing + 1e-9:
                assert float(row["closed_form"]) > 0

    def test_rejects_zero_points(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve", "--n", "1", "--points", "0"])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_rejects_independent_v1_v2(self, capsys):
        # the closed_form column holds only for V1 = V2; here it is off by 0.067
        code, out, err = run(capsys, "curve", "--n", "4", "--u", "seed:5", "--v1", "seed:1", "--v2", "seed:2")
        assert code == 2 and out == ""
        assert "V1 = V2" in err
        gap = np.max(np.abs(maps.random_unitary(16, seed=1) - maps.random_unitary(16, seed=2)))
        assert err.endswith(f"max|V1 - V2| = {gap:.3e}\n")  # of the inputs, not of a composed rotation

    def test_rejects_non_finite_v_file(self, capsys, tmp_path):
        # NaN compares false with everything; the curve once printed nan rows and exited 0
        spec = write_v_with(tmp_path, np.nan)
        code, out, err = run(capsys, "curve", "--n", "1", "--v1", spec, "--v2", spec)
        assert code == 2 and out == ""
        assert "malformed matrix payload" in err

    def test_equal_v1_v2_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "2", "--u", "seed:5", "--v1", "seed:1", "--v2", "seed:1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        assert all(float(r["abs_difference"]) <= 1e-12 for r in rows)

    def test_numeric_reads_the_affine_line(self, capsys, monkeypatch):
        # Tr(W rho_lam) = (1 - lam) g0 + lam g1 off two isotropic states, not one state per point;
        # it agrees with the per-point trace up to rounding
        made = []
        build = states.isotropic_state
        monkeypatch.setattr(states, "isotropic_state", lambda d, lam: made.append(lam) or build(d, lam))
        code, out, _ = run(capsys, "curve", "--n", "2", "--u", "seed:5", "--v1", "seed:1", "--v2", "seed:1",
                           "--points", "21")
        assert code == 0 and made == [0.0, 1.0]
        v = maps.random_unitary(8, 1)
        w = witnesses.choi(maps.conjugated_phi(2, maps.random_antisymmetric_unitary(2, 5), v, v))
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 21
        for row in rows:
            per_point = witnesses.detect(w, build(8, float(row["lambda"])))
            assert float(row["numeric"]) == pytest.approx(per_point, rel=0, abs=1e-15)

    def test_columns_equal_the_per_point_loop(self, capsys):
        # the columns are computed on the whole lambda grid at once; each value equals, bit for bit, the
        # same arithmetic done one Python float at a time
        n, v = 2, maps.random_unitary(8, 1)
        code, out, _ = run(capsys, "curve", "--n", str(n), "--u", "seed:5", "--v1", "seed:1", "--v2", "seed:1",
                           "--points", "21")
        assert code == 0
        g0, g1 = witnesses.choi(maps.conjugated_phi(n, maps.random_antisymmetric_unitary(n, 5), v, v)).detection_line
        want = []
        for lam in np.linspace(0.0, 1.0, 21).tolist():
            closed, numeric = certify.isotropic_detection_value(n, lam), (1.0 - lam) * g0 + lam * g1
            want.append([lam, closed, numeric, abs(closed - numeric)])
        assert [[float(x) for x in row] for row in list(csv.reader(io.StringIO(out)))[1:]] == want


class TestSpectrum:
    def test_csv_content(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "1", "--u", "seed:3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 16
        assert all(float(r["abs_difference"]) < 1e-9 for r in rows)
        assert float(rows[0]["expected"]) == pytest.approx(-0.25)

    def test_contraction_u_file_is_tabulated(self, capsys, tmp_path):
        # the spectrum table has no verdict: a contraction U shows as a large deviation, with exit 0
        code, out, _ = run(capsys, "spectrum", "--n", "1", "--u", write_matrix(tmp_path, 0.5 * maps.SIGMA_Y))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 16
        assert max(float(r["abs_difference"]) for r in rows) > 1e-2

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "1", "--output", "text")
        assert code == 0
        assert len(out.strip().splitlines()) == 16


class TestTables:
    """spectrum's and curve's rows, one table writer's, in both formats."""

    REQUESTS = {"n1": ["--n", "1"], "n2-conjugated": ["--n", "2", "--u", "seed:5", "--v1", "seed:1", "--v2", "seed:1"]}
    HEADER = {"spectrum": "index,computed,expected,abs_difference", "curve": "lambda,closed_form,numeric,abs_difference"}
    # the --output text line of a row, as README documents it
    TEXT_LINE = {"spectrum": "{:4d}  computed={:+.12f}  expected={:+.12f}  diff={:.2e}",
                 "curve": "lambda={:.4f} closed={:+.12f} numeric={:+.12f} diff={:.2e}"}
    # the first and last row of each table, as CSV and as text
    PINNED = {
        ("spectrum", "n1"): (
            ("0,-0.25,-0.25,0", "15,0.25000000000000006,0.25,5.5511151231257827e-17"),
            ("   0  computed=-0.250000000000  expected=-0.250000000000  diff=0.00e+00",
             "  15  computed=+0.250000000000  expected=+0.250000000000  diff=5.55e-17")),
        ("curve", "n1"): (
            ("0,-0.25,-0.25,0", "1,0.0625,0.0625,0"),
            ("lambda=0.0000 closed=-0.250000000000 numeric=-0.250000000000 diff=0.00e+00",
             "lambda=1.0000 closed=+0.062500000000 numeric=+0.062500000000 diff=0.00e+00")),
        ("spectrum", "n2-conjugated"): (
            ("0,-0.12500000000000006,-0.125,5.5511151231257827e-17", "63,0.125,0.125,0"),
            ("   0  computed=-0.125000000000  expected=-0.125000000000  diff=5.55e-17",
             "  63  computed=+0.125000000000  expected=+0.125000000000  diff=0.00e+00")),
        ("curve", "n2-conjugated"): (
            ("0,-0.125,-0.125,0", "1,0.015625,0.015625,0"),
            ("lambda=0.0000 closed=-0.125000000000 numeric=-0.125000000000 diff=0.00e+00",
             "lambda=1.0000 closed=+0.015625000000 numeric=+0.015625000000 diff=0.00e+00")),
    }

    @pytest.mark.parametrize("request_id", list(REQUESTS))
    @pytest.mark.parametrize("command", ["spectrum", "curve"])
    def test_text_rows_format_the_csv_rows(self, capsys, command, request_id):
        argv = [command, *self.REQUESTS[request_id]]
        code, table, _ = run(capsys, *argv, "--output", "csv")
        assert code == 0
        code, text, _ = run(capsys, *argv, "--output", "text")
        assert code == 0
        header, *rows = table.splitlines()
        lines = text.splitlines()
        assert table.endswith("\n") and text.endswith("\n") and header == self.HEADER[command]
        assert len(rows) == len(lines) == {"spectrum": (4 * int(argv[2])) ** 2, "curve": 11}[command]
        for row, line in zip(rows, lines):
            index, *values = row.split(",")  # every value is written as {:.17g}, which a float reads back exactly
            assert values == [format(float(value), ".17g") for value in values]
            first = int(index) if command == "spectrum" else float(index)
            assert line == self.TEXT_LINE[command].format(first, *map(float, values))
        assert ((rows[0], rows[-1]), (lines[0], lines[-1])) == self.PINNED[command, request_id]


class TestOneProcess:
    """Requests of one long-running caller share one parser, and answer as fresh processes do."""

    SEQUENCE = [
        ["certify", "--n", "1", "--bogus"],
        ["certify", "--help"],
        ["certify", "--n", "1", "--tol", "spectrum=1e-3", "--output", "json"],
        ["certify", "--n", "1", "--output", "json"],
        ["build", "--n", "1", "--u", "seed:3", "--output", "json"],
        ["build", "--n", "1", "--u", "seed:3", "--v1", "seed:1", "--v2", "seed:1", "--output", "json"],
    ]

    def test_no_state_leaks_between_requests(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")  # --help wraps at the same width here and in a fresh process
        cli._parser.cache_clear()
        answers = []
        for argv in self.SEQUENCE:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            answers.append((code, out.out, out.err))
        assert [code for code, _, _ in answers] == [2, 0, 0, 0, 0, 0]
        built = cli._parser.cache_info()
        assert (built.misses, built.hits) == (1, len(self.SEQUENCE) - 1)  # make_parser ran once

        tolerances = [{c["name"]: c["tolerance"] for c in json.loads(answers[i][1])["checks"]} for i in (2, 3)]
        assert tolerances[0]["spectrum"] == 1e-3
        assert tolerances[1] == certify.DEFAULT_TOLERANCES

        for argv, answer in zip(self.SEQUENCE, answers):
            done = subprocess.run([sys.executable, "-c", "import sys; from robwit import cli; sys.exit(cli.main())", *argv],
                                  capture_output=True, text=True, env=fresh_env(), timeout=300)
            assert answer == (done.returncode, done.stdout, done.stderr), argv
