"""Tests for the converge/fields CSV harness."""

import pytest

from casrod import ElementFormulation, ellipse_reference
from casrod.cli import (
    CONVERGE_HEADER,
    FIELDS_HEADER,
    RunConfig,
    main,
    run_convergence_study,
    run_field_dump,
)


def ring_config(**kwargs):
    base = dict(problem="ring", formulation=ElementFormulation.CAS,
                slenderness=(1e4,), start_elements=2, refinements=2)
    base.update(kwargs)
    return RunConfig(**base)


class TestConvergeCommand:
    def test_golden_header(self):
        text = run_convergence_study(ring_config())
        assert text.splitlines()[0] == CONVERGE_HEADER
        assert CONVERGE_HEADER == ("problem,formulation,quad_points,n_elements,"
                                   "n_dof,slenderness,e_u,e_N,e_M,err_uxA,err_uyB")

    def test_row_counting(self):
        # 3 slenderness values x 8 meshes -> 24 data rows
        config = ring_config(slenderness=(1e4, 1e6, 1e8), refinements=7)
        text = run_convergence_study(config)
        rows = text.strip().splitlines()
        assert len(rows) == 1 + 3 * 8

    def test_deterministic_output(self):
        a = run_convergence_study(ring_config())
        b = run_convergence_study(ring_config())
        assert a == b

    def test_ring_row_contents(self):
        text = run_convergence_study(ring_config(refinements=0))
        cells = text.strip().splitlines()[1].split(",")
        assert cells[0] == "ring"
        assert cells[1] == "cas"
        assert cells[2] == "3"
        assert cells[3] == "2"
        # ring has no exact displacement field: e_u empty, e_N/e_M populated
        assert cells[6] == ""
        assert float(cells[7]) > 0
        assert float(cells[8]) > 0
        assert float(cells[9]) > 0  # err_uxA
        assert float(cells[10]) > 0  # err_uyB

    def test_n_dof_accounting(self):
        # 2(n_elements + p) minus constrained dofs; the ring quarter removes
        # 2 fixed dofs and folds 2 ties
        text = run_convergence_study(ring_config(refinements=0))
        cells = text.strip().splitlines()[1].split(",")
        n_el = int(cells[3])
        assert int(cells[4]) == 2 * (n_el + 2) - 4

    def test_arch_point_columns_empty(self):
        config = RunConfig(problem="arch", formulation=ElementFormulation.CAS,
                           slenderness=(0.1,), start_elements=2, refinements=1)
        for row in run_convergence_study(config).strip().splitlines()[1:]:
            cells = row.split(",")
            assert cells[9] == "" and cells[10] == ""
            assert float(cells[6]) > 0  # e_u present

    def test_quad_points_override(self):
        config = ring_config(quad_points=2, refinements=0)
        cells = run_convergence_study(config).strip().splitlines()[1].split(",")
        assert cells[2] == "2"

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ring_config(slenderness=())
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                ring_config(slenderness=(1e4, bad))
        with pytest.raises(ValueError):
            ring_config(refinements=-1)
        with pytest.raises(ValueError):
            ring_config(quad_points=4)
        with pytest.raises(ValueError):
            RunConfig(problem="plate", formulation=ElementFormulation.CAS,
                      slenderness=(1.0,))


class TestFieldsCommand:
    def test_golden_header_and_row_count(self):
        config = ring_config(elements=8, samples=101)
        text = run_field_dump(config)
        lines = text.strip().splitlines()
        assert lines[0] == FIELDS_HEADER
        assert FIELDS_HEADER == "s,phi,u_x,u_y,N,M,N_exact,M_exact"
        assert len(lines) == 1 + 101

    def test_ring_exact_columns_populated(self):
        config = ring_config(elements=8, samples=21)
        lines = run_field_dump(config).strip().splitlines()
        cells = lines[5].split(",")
        assert cells[6] != "" and cells[7] != ""

    def test_ellipse_reference_sidecar(self):
        config = RunConfig(problem="ellipse", formulation=ElementFormulation.CAS,
                           slenderness=(0.04,), elements=8, samples=11)
        lines = run_field_dump(config).strip().splitlines()
        data = lines[1].split(",")
        assert data[6] == "" and data[7] == ""  # no exact fields
        ref = ellipse_reference(0.04)
        keys = ("ux_free", "uy_free", "n_clamp_abs", "m_clamp_abs")
        assert lines[-1] == "# reference " + " ".join(f"{k}={ref[k]:.10e}" for k in keys)

    def test_requires_element_count(self):
        with pytest.raises(ValueError, match="element count"):
            run_field_dump(ring_config())


class TestMainEntry:
    def test_converge_to_file(self, tmp_path):
        out = tmp_path / "study.csv"
        code = main(["converge", "--problem", "ring", "--formulation", "cas",
                     "--slenderness", "1e4", "--refinements", "1",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CONVERGE_HEADER
        assert len(lines) == 3

    @pytest.mark.parametrize("command", ["converge", "fields"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, command, target):
        out = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        args = [command, "--problem", "ring", "--formulation", "cas", "--slenderness", "1e4",
                "--out", str(out)]
        args += (["--refinements", "1"] if command == "converge"
                 else ["--elements", "2", "--samples", "3"])
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"casrod: error: cannot write {out}: ")
        assert captured.err.count("\n") == 1  # one line, no traceback
        assert not (tmp_path / "missing").exists()

    def test_fields_to_stdout(self, capsys):
        code = main(["fields", "--problem", "ring", "--formulation", "nurbs",
                     "--slenderness", "1e4", "--elements", "4", "--samples", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == FIELDS_HEADER

    def test_usage_error_exit_code(self, capsys):
        assert main(["converge", "--problem", "plate", "--formulation", "cas",
                     "--slenderness", "1e4"]) == 1
        assert main(["converge", "--problem", "ring"]) == 1

    def test_bad_value_exit_code(self, capsys):
        code = main(["converge", "--problem", "ring", "--formulation", "cas",
                     "--slenderness", "-3"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        from casrod import cli
        from casrod.errors import SingularSystemError

        def boom(config):
            raise SingularSystemError("ring at 2 elements: factorization failed")

        monkeypatch.setattr(cli, "run_convergence_study", boom)
        code = main(["converge", "--problem", "ring", "--formulation", "cas",
                     "--slenderness", "1e4"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_study_failure_carries_context(self, monkeypatch):
        # partial failures abort with the problem and mesh in the message
        from casrod import cli
        from casrod.errors import SingularSystemError

        def boom(problem, formulation, quad_points=None):
            raise SingularSystemError("factorization failed")

        monkeypatch.setattr(cli, "solve_problem", boom)
        with pytest.raises(SingularSystemError, match="ring at 2 elements"):
            cli.convergence_records(ring_config(refinements=0))

    def test_study_failure_keeps_foreign_error(self, monkeypatch):
        # an error type whose constructor takes two arguments cannot be
        # rebuilt from one message; the study error chains it instead
        from casrod import cli

        class TwoArgError(ValueError):
            def __init__(self, code, detail):
                super().__init__(f"{code}: {detail}")
                self.code = code

        def boom(problem, formulation, quad_points=None):
            raise TwoArgError(7, "bad mesh")

        monkeypatch.setattr(cli, "solve_problem", boom)
        with pytest.raises(TwoArgError, match="ring at 2 elements.*7: bad mesh") as info:
            cli.convergence_records(ring_config(refinements=0))
        err = info.value
        assert isinstance(err, cli.StudyError)
        assert isinstance(err.__cause__, TwoArgError) and err.__cause__.code == 7
        assert (err.problem, err.n_elements, err.slenderness) == ("ring", 2, 1e4)
        assert main(["converge", "--problem", "ring", "--formulation", "cas",
                     "--slenderness", "1e4", "--refinements", "0"]) == 1

    def test_unsubclassable_error_mapped_by_original_type(self, monkeypatch, capsys):
        from casrod import cli
        from casrod.errors import SingularSystemError

        class SealedError(SingularSystemError):
            def __init_subclass__(cls, **kwargs):
                raise TypeError("sealed")

        def boom(problem, formulation, quad_points=None):
            raise SealedError("factorization failed")

        monkeypatch.setattr(cli, "solve_problem", boom)
        with pytest.raises(cli.StudyError, match="ring at 2 elements") as info:
            cli.convergence_records(ring_config(refinements=0))
        assert type(info.value) is cli.StudyError
        assert isinstance(info.value.__cause__, SealedError)
        assert main(["converge", "--problem", "ring", "--formulation", "cas",
                     "--slenderness", "1e4", "--refinements", "0"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["converge", "fields"])
    @pytest.mark.parametrize("problem, value", [
        ("ring", "nan"), ("ring", "inf"),
        ("arch", "nan"), ("arch", "inf"), ("arch", "1e-300"),
        ("ellipse", "nan"), ("ellipse", "inf"), ("ellipse", "1e-300"),
    ])
    def test_bad_slenderness_is_a_usage_error(self, capsys, command, problem, value):
        args = [command, "--problem", problem, "--formulation", "cas", "--slenderness", value]
        args += ["--refinements", "0"] if command == "converge" else ["--elements", "2"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("casrod: error: ") and err.count("\n") == 1, err
        assert "positive and finite" in err
