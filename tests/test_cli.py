import contextlib
import copy
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pinnet
from pinnet import csvtext
from pinnet import (
    BUILTIN_SCENARIOS,
    UNCONTROLLED,
    CouplingMatrix,
    PinPlan,
    QuadCertificate,
    ScenarioError,
    build_system,
    check_scenario,
    integrate,
    metrics,
    min_coupling_strength,
    parse_scenario,
    register_dynamics,
    render_report,
    run_scenario,
    serialize_scenario,
    theorem3_check,
)
from pinnet.cli import (
    _summary_fit,
    main,
    parse_sweep,
    run_sweep,
    write_metrics_csv,
    write_trajectory_csv,
)
from pinnet.scenarios import COUPLING_MATRICES
from pinnet.simulate import MetricSeries, Trajectory


# a scenario field, the argument its constructor names, a value that is not
# a number and one that is out of range or not finite
_FIELD_RULES = [
    ("pin.epsilon", "feedback gain epsilon", "x", -1.0),
    ("pin.c", "coupling strength c", "x", 0.0),
    ("certificate.P", "p", [1.0, "1", 1.0], [1.0, 0.0, 1.0]),
    ("certificate.Delta", "delta", [10.0, True, 10.0], [10.0, float("inf"), 10.0]),
    ("certificate.eta", "eta", "0.5", 0.0),
    ("coupling_function.alpha_lower", "alpha_lower", [0.5], -0.5),
    ("integration.dt", "dt", "0.01", 0.0),
    ("integration.t_max", "t_max", None, float("inf")),
    ("coupling", "coupling matrix", [["-1", "1"], ["1", "-1"]],
     [[-1.0, 1.0], [1.0, float("nan")]]),
]


class TestParseScenario:
    def test_builtin_fig4_constants(self):
        cfg = parse_scenario("fig4-sym-pinned")
        np.testing.assert_array_equal(
            cfg.coupling.entries,
            [[-5.1, 5.0, 0.1], [5.0, -11.0, 6.0], [0.1, 6.0, -6.1]],
        )
        assert cfg.pin.pin_node == 1
        assert cfg.pin.epsilon == 4.9
        assert cfg.pin.c == 10.0
        assert cfg.dynamics.kind == "chua"
        assert cfg.dynamics.params == {"k": 9.0, "l": 100.0 / 7.0}
        np.testing.assert_array_equal(
            cfg.initial_states,
            [[40.1, 20.2, 30.3], [20.4, 30.5, 10.6], [60.7, 40.8, 50.9]],
        )
        np.testing.assert_array_equal(cfg.reference_initial, [0.0, 0.0, 0.0])
        assert (cfg.dt, cfg.t_max) == (1e-3, 20.0)

    def test_builtin_fig5_constants(self):
        cfg = parse_scenario("fig5-asym-pinned")
        assert not cfg.coupling.symmetric
        assert cfg.pin.epsilon == 2.0
        assert cfg.pin.c == 72.0
        assert cfg.dt == 2e-4

    def test_pin_node_zero_rejected(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["pin"]["node"] = 0
        with pytest.raises(ScenarioError, match="1-based"):
            parse_scenario(data)

    def test_unknown_dynamics_kind(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["dynamics"]["kind"] = "rossler"
        with pytest.raises(ScenarioError, match="unknown dynamics kind"):
            parse_scenario(data)

    def test_dimension_mismatch(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["initial_states"] = [[1.0, 2.0, 3.0]]
        with pytest.raises(ScenarioError, match="shape"):
            parse_scenario(data)

    def test_missing_required_field(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        del data["integration"]
        with pytest.raises(ScenarioError, match="'integration' is required"):
            parse_scenario(data)

    def test_unknown_field_rejected(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["extra"] = 1
        with pytest.raises(ScenarioError, match="unknown scenario field"):
            parse_scenario(data)

    def test_unknown_coupling_id(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["coupling"] = "ring-99"
        with pytest.raises(ScenarioError, match="coupling id"):
            parse_scenario(data)

    def test_certificate_length_checked(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["certificate"]["P"] = [1.0, 1.0]
        message = r"^certificate: p must have shape \(3,\), got \(2,\)$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(data)

    def test_bad_integration(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["integration"] = {"dt": 0.0, "t_max": 1.0}
        with pytest.raises(ScenarioError, match="dt"):
            parse_scenario(data)

    def test_non_dividing_step_rejected(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["integration"] = {"dt": 0.3, "t_max": 1.0}
        with pytest.raises(ScenarioError, match=r"integration: dt=0\.3 .*t_max=1\b"):
            parse_scenario(data)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("initial_states", [[1.0, 2.0, 3.0], [0.0, float("nan"), 0.0], [1.0, 1.0, 1.0]],
             r"initial_states entry \(2,2\) is not finite: nan"),
            ("initial_states", [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, 1.0, float("-inf")]],
             r"initial_states entry \(3,3\) is not finite: -inf"),
            ("reference_initial", [0.0, float("inf"), 0.0],
             r"reference_initial entry \(2\) is not finite: inf"),
            ("initial_states", "abc", "initial_states must hold numbers only"),
            ("reference_initial", ["0", 0.0, 0.0], "reference_initial must hold numbers only"),
            ("reference_initial", [True, False, True], "reference_initial must hold numbers"),
            ("reference_initial", {"a": 1}, "reference_initial must hold numbers only"),
            ("initial_states", [[1.0, 2.0], [3.0]], "initial_states must be a regular array"),
        ],
    )
    def test_invalid_initial_data_names_its_field(self, field, value, message):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data[field] = value
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(data)

    def test_non_finite_certificate_names_its_field(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["certificate"]["Delta"] = [10.0, float("nan"), 10.0]
        message = r"^certificate: delta entry \(2\) is not finite: nan$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(data)

    @pytest.mark.parametrize(
        "params, message",
        [
            ([1, 2], r"dynamics.params must be an object, got \[1, 2\]"),
            ({"k": float("nan")}, "dynamics.params.k must be finite"),
            ({"k": [9.0]}, "dynamics: "),
            ({"K": 20}, r"dynamics.params.K is not a parameter of chua \(known: k, l\)"),
            ({"k": True}, r"dynamics.params.k must be a number, got True \(known: k, l\)"),
        ],
    )
    def test_bad_dynamics_params(self, params, message):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["dynamics"]["params"] = params
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("trajectory", "/abs/x.csv"),
            ("metrics", "../m.csv"),
            ("summary", "sub/s.txt"),
            ("summary", ".."),
            ("metrics", "."),
            ("trajectory", ""),
            ("trajectory", 5),
            ("summary", "a\0b"),
        ],
    )
    def test_outputs_must_be_plain_file_names(self, key, value):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["outputs"] = {"trajectory": "t.csv", "metrics": "m.csv", "summary": "s.txt"}
        data["outputs"][key] = value
        with pytest.raises(ScenarioError, match=f"outputs.{key} must be a plain file name"):
            parse_scenario(data)

    @pytest.mark.parametrize("name", ["../up", "a/b", "/abs", ".", "..", "a\0b"])
    def test_name_must_be_a_plain_file_name(self, name):
        # the default and sweep file names derive from it
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["name"] = name
        with pytest.raises(ScenarioError, match="name must be a plain file name"):
            parse_scenario(data)

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(ScenarioError, match="fig4-sym-pinned"):
            parse_scenario("no-such-scenario")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(BUILTIN_SCENARIOS["fig4-sym-pinned"]))
        cfg = parse_scenario(str(path))
        assert cfg.name == "fig4-sym-pinned"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            parse_scenario(str(path))

    def test_non_utf8_file_names_its_path(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(ScenarioError, match=f"^{re.escape(str(path))}: invalid JSON: 'utf-8'"):
            parse_scenario(str(path))

    @pytest.mark.parametrize("reference", [[], [[0.0, 0.0, 0.0]]])
    def test_reference_must_be_a_flat_list(self, reference):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["reference_initial"] = reference
        message = "^reference_initial must be a nonempty flat list of numbers$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(data)

    def test_certificate_must_match_the_state_dimension(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["certificate"].update(P=[1.0, 1.0], Delta=[10.0, 10.0])
        message = "^certificate.P and certificate.Delta must be length-3 lists$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(data)

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ScenarioError, match="JSON object"):
            parse_scenario(str(path))

    def test_defaults(self):
        data = {
            "name": "bare",
            "coupling": [[0.0]],
            "dynamics": {"kind": "linear_decay", "params": {}},
            "initial_states": [[1.0]],
            "reference_initial": [0.0],
            "integration": {"dt": 0.1, "t_max": 1.0},
        }
        cfg = parse_scenario(data)
        assert cfg.gfun.kind == "identity"
        assert cfg.pin is UNCONTROLLED
        assert cfg.certificate is None
        assert cfg.outputs["metrics"] == "bare_metrics.csv"

    def test_missing_pin_is_written_as_uncontrolled(self):
        data = {
            "name": "bare",
            "coupling": [[0.0]],
            "dynamics": {"kind": "linear_decay", "params": {}},
            "initial_states": [[1.0]],
            "reference_initial": [0.0],
            "integration": {"dt": 0.1, "t_max": 1.0},
        }
        written = serialize_scenario(parse_scenario(data))
        assert written["pin"] == {"node": 1, "epsilon": 0.0, "c": 1.0}
        assert parse_scenario(written).pin == UNCONTROLLED

    @pytest.mark.parametrize(
        "field",
        ["dynamics", "coupling_function", "pin", "certificate", "integration", "outputs"],
    )
    def test_unknown_nested_field_names_its_path(self, field):
        data = copy.deepcopy(BUILTIN_SCENARIOS["nonlinear-pinned"])
        data["outputs"] = {"trajectory": "t.csv", "metrics": "m.csv", "summary": "s.txt"}
        data[field]["typo"] = 1
        with pytest.raises(ScenarioError, match=rf"unknown {field} field\(s\): {field}\.typo\b"):
            parse_scenario(data)

    def test_missing_nested_field_names_its_path(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        del data["pin"]["epsilon"]
        with pytest.raises(ScenarioError, match="scenario field 'pin.epsilon' is required"):
            parse_scenario(data)

    def test_numpy_integer_pin_node_parses(self):
        # the library's PinPlan accepts any integral node, so the scenario does
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["pin"]["node"] = np.int64(2)
        pin = parse_scenario(data).pin
        assert pin.pin_node == 2 and type(pin.pin_node) is int

    @pytest.mark.parametrize(
        "node, message",
        [(5, r"^pin: pin_node 5 exceeds node count 3$"), (1.0, r"^pin: .*1-based.*got 1\.0$")],
        ids=["out-of-range", "float"],
    )
    def test_pin_node_errors_come_from_the_model(self, node, message):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["pin"]["node"] = node
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(data)

    @pytest.mark.parametrize(
        "field, value, prefix",
        [
            ("coupling_function", {"kind": ["identity"]}, "coupling_function: "),
            ("coupling", {"a": 1}, "coupling: "),
            ("coupling", [["a", "b"], ["c", "d"]], "coupling: "),
        ],
        ids=["kind-list", "coupling-dict", "coupling-strings"],
    )
    def test_malformed_constructor_input_names_its_field(self, field, value, prefix):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data[field] = value
        with pytest.raises(ScenarioError, match=f"^{prefix}"):
            parse_scenario(data)

    @pytest.mark.parametrize(
        "matrix",
        [
            [["-5.1", "5.0", "0.1"], ["5.0", "-11.0", "6.0"], ["0.1", "6.0", "-6.1"]],
            [[-1, True, False], [True, -1, False], [False, False, 0]],
            [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, False, 0.0]],
        ],
        ids=["numeric-strings", "booleans", "one-boolean"],
    )
    def test_inline_coupling_holds_numbers_only(self, matrix):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["coupling"] = matrix
        message = r"^coupling: coupling matrix must hold numbers only"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(data)
        data["coupling"] = [[-1, 1, 0], [1, -1, 0], [0, 0, 0]]
        np.testing.assert_array_equal(
            parse_scenario(data).coupling.entries, [[-1, 1, 0], [1, -1, 0], [0, 0, 0]]
        )

    @pytest.mark.parametrize(
        "field, argument, not_number, out_of_range",
        _FIELD_RULES,
        ids=[row[0] for row in _FIELD_RULES],
    )
    def test_one_wording_per_field(self, field, argument, not_number, out_of_range):
        # the constructor that keeps the value checks it, under the object's name
        *parents, key = field.split(".")
        prefix = f"{parents[0] if parents else field}: "
        for value in (not_number, out_of_range):
            data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
            target = data
            for name in parents:
                target = target[name]
            target[key] = value
            with pytest.raises(ScenarioError, match=f"^{re.escape(prefix + argument)} "):
                parse_scenario(data)

    @pytest.mark.parametrize("field", ["dynamics", "coupling_function"])
    def test_kind_must_be_a_string(self, field):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data[field]["kind"] = ["chua"]
        with pytest.raises(ScenarioError, match=rf"^{field}: kind must be a string, got \['chua'\]"):
            parse_scenario(data)

    @pytest.mark.parametrize("other", ["metrics", "summary"])
    def test_output_names_must_differ(self, other):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["outputs"] = {"trajectory": "t.csv", "metrics": "m.csv", "summary": "s.txt"}
        data["outputs"][other] = "t.csv"
        with pytest.raises(ScenarioError, match="outputs must name three different files"):
            parse_scenario(data)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_serialize_parse_identity(self, name):
        original = BUILTIN_SCENARIOS[name]
        assert serialize_scenario(parse_scenario(name)) == original

    def test_builtins_share_no_nested_object(self):
        # a built-in edited in place must not change the others
        def containers(obj):
            if isinstance(obj, (dict, list)):
                yield id(obj)
                for child in obj.values() if isinstance(obj, dict) else obj:
                    yield from containers(child)

        seen = {}
        for name, data in BUILTIN_SCENARIOS.items():
            for ident in containers(data):
                assert ident not in seen, f"{name} shares a list or dict with {seen[ident]}"
                seen[ident] = name

    def test_integer_numbers_are_written_as_floats(self, tmp_path, capsys):
        # the constructors store the floats their rules return
        printed = []
        for one in (1, 1.0):
            data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
            data["pin"].update(epsilon=5 * one, c=10 * one)
            data["certificate"]["eta"] = one
            data["integration"] = {"dt": one, "t_max": 20 * one}
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(data))
            assert main(["run", str(path), "--dry-run"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_dynamics_params_are_written_as_floats(self, tmp_path, capsys):
        # make_dynamics stores the floats its rule returns, so a numpy float
        # serializes and an integer prints back as a float
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["dynamics"]["params"] = {"k": np.float32(9)}
        written = json.loads(json.dumps(serialize_scenario(parse_scenario(data))))
        assert written["dynamics"] == {"kind": "chua", "params": {"k": 9.0}}
        data["dynamics"]["params"] = {"k": 9}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--dry-run"]) == 0
        assert '"k": 9.0' in capsys.readouterr().out

    def test_dry_run_output_reads_back_unchanged(self, tmp_path, capsys):
        # a built-in, a scenario file, and one whose integer parameter prints
        # as a float: what --dry-run prints, --dry-run prints back byte for byte
        int_k = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        int_k["dynamics"]["params"] = {"k": 9}
        (tmp_path / "int-k.json").write_text(json.dumps(int_k))
        resolved = tmp_path / "resolved.json"
        for source in ("fig4-sym-pinned", str(LINEAR_RING), str(tmp_path / "int-k.json")):
            assert main(["run", source, "--dry-run"]) == 0
            resolved.write_text(capsys.readouterr().out)
            assert main(["run", str(resolved), "--dry-run"]) == 0
            assert capsys.readouterr().out == resolved.read_text()

    def test_inline_matrix_roundtrip(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["coupling"] = [[-1.0, 1.0], [1.0, -1.0]]
        data["initial_states"] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert serialize_scenario(parse_scenario(data)) == data


_OUTPUTS = {"trajectory": "t.csv", "metrics": "m.csv", "summary": "s.txt"}

# each ScenarioConfig rule: the top-level scenario fields and the config
# fields that break it, and the message it raises for both
_CONFIG_RULES = [
    ({"name": "../up"}, {"name": "../up"}, r"^name must be a plain file name, got '\.\./up'$"),
    ({"outputs": {**_OUTPUTS, "metrics": "../m.csv"}},
     {"outputs": {**_OUTPUTS, "metrics": "../m.csv"}}, r"^outputs\.metrics must be a plain file name"),
    ({"outputs": {**_OUTPUTS, "summary": "t.csv"}}, {"outputs": {**_OUTPUTS, "summary": "t.csv"}},
     "^outputs must name three different files"),
    ({"outputs": {"trajectory": "t.csv"}}, {"outputs": {"trajectory": "t.csv"}},
     r"^scenario field 'outputs\.metrics' is required$"),
    ({"reference_initial": [[0.0, 0.0, 0.0]]}, {"reference_initial": [[0.0, 0.0, 0.0]]},
     "^reference_initial must be a nonempty flat list of numbers$"),
    ({"reference_initial": [0.0, float("nan"), 0.0]},
     {"reference_initial": [0.0, float("nan"), 0.0]},
     r"^reference_initial entry \(2\) is not finite: nan$"),
    ({"initial_states": [[1.0, 2.0, 3.0]]}, {"initial_states": [[1.0, 2.0, 3.0]]},
     r"^initial_states must have shape \(3, 3\) to match the coupling matrix and dynamics, "
     r"got \(1, 3\)$"),
    ({"initial_states": [[1.0, 2.0, 3.0]] * 2 + [[0.0, float("inf"), 0.0]]},
     {"initial_states": [[1.0, 2.0, 3.0]] * 2 + [[0.0, float("inf"), 0.0]]},
     r"^initial_states entry \(3,2\) is not finite: inf$"),
    ({"pin": {"node": 5, "epsilon": 4.9, "c": 10.0}}, {"pin": PinPlan(5, 4.9, 10.0)},
     r"^pin: pin_node 5 exceeds node count 3$"),
    ({"certificate": {"P": [1.0, 1.0], "Delta": [10.0, 10.0], "eta": 0.6218}},
     {"certificate": QuadCertificate([1.0, 1.0], [10.0, 10.0], 0.6218)},
     "^certificate.P and certificate.Delta must be length-3 lists$"),
    ({"integration": {"dt": 0.3, "t_max": 1.0}}, {"dt": 0.3, "t_max": 1.0},
     r"^integration: dt=0\.3 does not divide t_max=1: 3 steps end at t=0\.9$"),
]


class TestScenarioConfig:
    @pytest.mark.parametrize(
        "scenario, fields, message",
        _CONFIG_RULES,
        ids=["name", "output-name", "output-twice", "output-missing", "reference-shape",
             "reference-finite", "initial-shape", "initial-finite", "pin-node",
             "certificate-length", "grid"],
    )
    def test_a_replaced_config_is_checked_like_a_parsed_one(self, scenario, fields, message):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data.update(copy.deepcopy(scenario))
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(data)
        with pytest.raises(ScenarioError, match=message):
            dataclasses.replace(parse_scenario("fig4-sym-pinned"), **fields)

    def test_the_dynamics_must_match_the_reference(self):
        # a parsed scenario builds its dynamics at the reference's length
        cfg = parse_scenario("fig4-sym-pinned")
        message = "^dynamics.dim must be 3, the length of reference_initial, got 2$"
        with pytest.raises(ScenarioError, match=message):
            dataclasses.replace(cfg, dynamics=pinnet.make_dynamics("linear_decay", dim=2))

    @pytest.mark.parametrize(
        "fields",
        [{"name": "../up"}, {"outputs": {**_OUTPUTS, "trajectory": "../e.csv"}}],
        ids=["name", "output"],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_nothing_is_written_outside_out_dir(self, tmp_path, fields, command):
        cfg = _short("fig4-sym-pinned", t_max=0.01)
        out = tmp_path / "out"
        with pytest.raises(ScenarioError, match="must be a plain file name"):
            point = dataclasses.replace(cfg, **fields)
            if command == "run":
                run_scenario(point, out_dir=out)
            else:
                run_sweep(point, "c=6:14:2", out)
        assert list(tmp_path.iterdir()) == []

    def test_a_replaced_coupling_serializes_as_its_own_matrix(self):
        cfg = parse_scenario("fig4-sym-pinned")
        asym = dataclasses.replace(cfg, coupling=CouplingMatrix(COUPLING_MATRICES["asym-3node"]))
        assert asym.coupling_id == "asym-3node"
        assert serialize_scenario(asym)["coupling"] == "asym-3node"
        ring = [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]
        inline = dataclasses.replace(cfg, coupling=CouplingMatrix(ring))
        assert inline.coupling_id is None and serialize_scenario(inline)["coupling"] == ring
        # an inline copy of a built-in matrix is written as its id
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["coupling"] = copy.deepcopy(COUPLING_MATRICES["sym-3node"])
        assert serialize_scenario(parse_scenario(data)) == BUILTIN_SCENARIOS["fig4-sym-pinned"]

    def test_initial_data_are_read_only_copies(self):
        states = np.array(BUILTIN_SCENARIOS["fig4-sym-pinned"]["initial_states"])
        cfg = dataclasses.replace(parse_scenario("fig4-sym-pinned"), initial_states=states)
        states[0, 0] = 1e3
        assert cfg.initial_states[0, 0] == 40.1
        for array in (cfg.initial_states, cfg.reference_initial):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = np.nan


class TestCheckScenario:
    def test_quad_sampling_needs_a_certificate(self):
        cfg = dataclasses.replace(parse_scenario("fig4-sym-pinned"), certificate=None)
        with pytest.raises(ScenarioError, match="^QUAD sampling needs a certificate"):
            check_scenario(cfg, quad_samples=10)

    def test_fig4_report(self):
        report = check_scenario(parse_scenario("fig4-sym-pinned"))
        assert report.route == "symmetric"
        assert report.proposition1.holds
        assert report.theorem_name == "theorem2"
        assert report.theorem.holds
        assert report.theorem.margin == pytest.approx(-0.11, abs=0.02)
        assert report.min_c == pytest.approx(9.891, abs=0.01)

    def test_fig4_weak_coupling_fails_with_suggestion(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["pin"]["c"] = 5.0
        report = check_scenario(parse_scenario(data))
        assert not report.theorem.holds
        assert report.min_c == pytest.approx(9.891, abs=0.01)

    def test_fig5_report(self):
        report = check_scenario(parse_scenario("fig5-asym-pinned"))
        assert report.route == "asymmetric"
        np.testing.assert_allclose(report.spectral.xi, [1 / 6, 2 / 6, 3 / 6], atol=1e-10)
        assert report.spectral.lambda1 == pytest.approx(-0.0718, abs=1e-3)
        assert report.theorem_name == "theorem4"
        assert report.theorem.holds
        assert report.min_c == pytest.approx(69.64, abs=0.01)

    def test_asymmetric_route_uses_the_slope_bound(self):
        # sine_blend halves the certified slope: the theorem4 margin and c*
        # must see it as theorem3 does on the symmetric route
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig5-asym-pinned"])
        data["coupling_function"] = {"kind": "sine_blend", "alpha_lower": 0.5}
        report = check_scenario(parse_scenario(data))
        identity = check_scenario(parse_scenario("fig5-asym-pinned"))
        assert report.theorem_name == "theorem4"
        assert not report.theorem.holds
        assert report.theorem.margin == pytest.approx(2.42, abs=5e-3)
        assert report.min_c == pytest.approx(139.3, abs=0.05)
        assert report.min_c == pytest.approx(2.0 * identity.min_c, rel=1e-12)

    def test_fig2_uncontrolled_fails(self):
        report = check_scenario(parse_scenario("fig2-sym-uncontrolled"))
        assert not report.proposition1.holds
        assert not report.theorem.holds
        assert report.min_c is None

    def test_no_c_star_under_a_failing_negativity_verdict(self):
        # lambda1 is about -3e-11: within roundoff of 0 under the relative
        # negativity rule, which min_coupling_strength applies too
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["pin"]["epsilon"] = 1e-10
        cfg = parse_scenario(data)
        report = check_scenario(cfg)
        assert not report.proposition1.holds
        assert report.min_c is None
        assert "minimal coupling strength: none" in render_report(report)
        with pytest.raises(ValueError, match="not negative"):
            min_coupling_strength(cfg.certificate, report.spectral)

    def test_large_weight_row_sum_roundoff_is_accepted(self):
        # row 1 sums to 3e-6, inside its 4e-6 roundoff bound; every check
        # along the asymmetric route must apply the same per-row rule
        w = 1e6
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig5-asym-pinned"])
        data["coupling"] = [[-2 * w, w, w + 3e-6], [w, -2 * w, w], [0.0, w, -w]]
        report = check_scenario(parse_scenario(data))
        assert report.route == "asymmetric"
        assert report.theorem_name == "theorem4"

    def test_nonlinear_routes_to_theorem3(self):
        report = check_scenario(parse_scenario("nonlinear-pinned"))
        assert report.theorem_name == "theorem3"
        assert report.theorem.holds
        assert report.min_c == pytest.approx(19.78, abs=0.01)

    def test_reducible_route(self):
        report = check_scenario(parse_scenario("reducible-pinned"))
        assert report.route == "reducible"
        assert report.reducibility.holds
        assert report.gate_verdict is report.reducibility

    @pytest.mark.parametrize(
        "name, certified, route, calls",
        [
            ("fig4-sym-pinned", True, "symmetric", 0),
            ("fig5-asym-pinned", True, "asymmetric", 1),
            ("fig5-asym-pinned", False, "asymmetric", 1),
            ("reducible-pinned", True, "reducible", 1),
            ("reducible-pinned", False, "reducible", 1),
        ],
    )
    def test_irreducibility_is_decided_once(self, monkeypatch, name, certified, route, calls):
        import pinnet.cli
        import pinnet.conditions
        from pinnet.linalg import scc_condensation

        seen = []

        def counted(a):
            seen.append(a)
            return scc_condensation(a)

        for module in (pinnet.cli, pinnet.conditions):
            monkeypatch.setattr(module, "scc_condensation", counted)
        cfg = parse_scenario(name)
        if not certified:
            cfg = dataclasses.replace(cfg, certificate=None)
        report = check_scenario(cfg)
        assert report.route == route
        assert len(seen) == calls

    def test_check_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        check_scenario(parse_scenario("fig4-sym-pinned"))
        assert list(tmp_path.iterdir()) == []

    def test_quad_sampling_hook(self):
        cfg = parse_scenario("fig4-sym-pinned")
        report = check_scenario(cfg, quad_samples=2000, seed=3)
        assert report.quad_sampled is not None
        assert report.quad_sampled.holds
        # the box is the hull of [-30, 30] and every initial coordinate
        lo, hi = report.quad_sampled.detail["box"]
        np.testing.assert_array_equal(lo, [-30.0, -30.0, -30.0])
        np.testing.assert_array_equal(hi, [60.7, 40.8, 50.9])
        for start in (*cfg.initial_states, cfg.reference_initial):
            assert np.all((lo <= start) & (start <= hi))
        assert "box [-30, 60.7] x [-30, 40.8] x [-30, 50.9]" in render_report(report)

    def test_negative_quad_samples_is_an_error(self):
        cfg = parse_scenario("fig4-sym-pinned")
        with pytest.raises(ScenarioError, match="quad_samples must be a whole number >= 0"):
            check_scenario(cfg, quad_samples=-5)
        assert check_scenario(cfg, quad_samples=0).quad_sampled is None

    def test_overstated_alpha_lower_rejected(self):
        # sine_blend's slopes bottom out at 0.5; a claimed 5.0 would certify
        # c = 5 with a margin of about -15 where the true margin is +7.5
        data = copy.deepcopy(BUILTIN_SCENARIOS["nonlinear-pinned"])
        data["coupling_function"]["alpha_lower"] = 5.0
        data["pin"]["c"] = 5.0
        with pytest.raises(ScenarioError, match="coupling_function: alpha_lower 5 exceeds"):
            parse_scenario(data)
        data["coupling_function"]["alpha_lower"] = "5"
        message = r"^coupling_function: alpha_lower must be a number, got '5'$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(data)

    def test_identity_alpha_lower_enters_the_margin(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["coupling_function"]["alpha_lower"] = 0.5
        cfg = parse_scenario(data)
        report = check_scenario(cfg)
        lam = report.spectral.lambda1
        assert report.theorem_name == "theorem2"
        expected = theorem3_check(cfg.certificate, cfg.pin.c, lam, alpha=0.5)
        assert report.theorem.margin == expected.margin
        assert not report.theorem.holds  # 10 + 0.5 * 10 * (-1.011) > 0
        assert report.min_c == min_coupling_strength(cfg.certificate, report.spectral, alpha=0.5)
        assert report.min_c == pytest.approx(2 * 9.891, abs=0.02)

    def test_asymmetric_branches_share_one_spectrum(self, monkeypatch):
        import pinnet.conditions

        calls = []
        solve = pinnet.conditions.sym_eigen

        def counted(a):
            calls.append(a)
            return solve(a)

        monkeypatch.setattr(pinnet.conditions, "sym_eigen", counted)
        with_cert = parse_scenario("fig5-asym-pinned")
        reports = []
        for cfg in (with_cert, dataclasses.replace(with_cert, certificate=None)):
            calls.clear()
            reports.append(check_scenario(cfg))
            # one coupling spectrum; the certified QUAD margin that verifies
            # the certificate takes one batched eigvalsh, not sym_eigen
            assert len(calls) == 1
        certified, bare = reports
        assert (certified.theorem_name, bare.theorem_name) == ("theorem4", None)
        assert bare.theorem is None and bare.min_c is None
        assert certified.proposition1.holds and bare.proposition1.holds
        assert certified.proposition1.margin == bare.proposition1.margin
        np.testing.assert_array_equal(certified.spectral.xi, bare.spectral.xi)
        np.testing.assert_array_equal(
            certified.spectral.eigenvalues, bare.spectral.eigenvalues
        )
        assert certified.spectral.lambda1 == bare.spectral.lambda1
        assert certified.spectral.xi_max == bare.spectral.xi_max


UNVERIFIED = Path(__file__).with_name("data") / "scenarios" / "fig4-unverified-certificate.json"


class TestCertificateGate:
    # fig4 with P = I, Delta = 0.1 I and eta = 5: theorem 2 reads margin
    # -10.0114, but the certified QUAD margin at that Delta is -9.27817
    def test_unverified_certificate_fails_the_theorem(self):
        report = check_scenario(parse_scenario(str(UNVERIFIED)))
        assert report.proposition1.holds
        assert not report.theorem.holds and not report.gate_verdict.holds
        assert report.theorem.margin == pytest.approx(-10.0114, abs=1e-4)
        assert report.theorem.detail["certified_margin"] == pytest.approx(-9.27817, abs=1e-5)
        assert report.min_c is None
        text = render_report(report)
        assert "  theorem2: FAILS (margin -10.0114)\n" in text
        assert text.endswith("  certificate: eta 5 exceeds the certified margin -9.27817")
        assert "minimal coupling strength" not in text

    def test_check_and_run_exit_2(self, tmp_path, capsys):
        assert main(["check", str(UNVERIFIED), "--require-conditions"]) == 2
        assert main(["check", str(UNVERIFIED)]) == 0
        out = tmp_path / "out"
        argv = ["run", str(UNVERIFIED), "--tmax", "1", "--require-conditions", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "run aborted: conditions not satisfied" in capsys.readouterr().out

    def test_overclaimed_eta_at_the_shipped_delta_fails(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["certificate"]["eta"] = 0.7
        report = check_scenario(parse_scenario(data))
        assert not report.gate_verdict.holds and report.min_c is None
        assert report.theorem.detail["certificate"] == (
            "eta 0.7 exceeds the certified margin 0.621827"
        )

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtins_keep_their_verdicts(self, name):
        report = check_scenario(parse_scenario(name))
        holds = {"fig2-sym-uncontrolled": False}.get(name, True)
        assert report.gate_verdict.holds == holds
        if report.theorem is not None:
            assert report.theorem.detail["certificate"] is None
            assert report.theorem.detail["certified_margin"] == 0.621826504640163
            assert "certificate:" not in render_report(report)

    def test_registered_kind_is_unverified(self):
        register_dynamics("cli_probe_decay", lambda dim, params: lambda x, t: -2.0 * x)
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["dynamics"] = {"kind": "cli_probe_decay"}
        report = check_scenario(parse_scenario(data))
        assert report.theorem.margin < 0 and not report.gate_verdict.holds
        assert report.min_c is None
        assert render_report(report).endswith(
            "  certificate: unverified (dynamics 'cli_probe_decay' declares no affine pieces)"
        )

    def test_sweep_rows_fail_under_the_bad_certificate(self, tmp_path):
        cfg = dataclasses.replace(parse_scenario(str(UNVERIFIED)), t_max=0.5)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_sweep(cfg, "c=6:14:3", tmp_path) == 0
        rows = (tmp_path / "fig4-unverified-certificate_sweep.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in rows[1:]] == ["0", "0", "0"]
        assert all(float(row.split(",")[1]) < 0 for row in rows[1:])


RING = Path(__file__).with_name("data") / "scenarios" / "chua-ring-m23-uncontrolled.json"


class TestRenderReport:
    def test_roundoff_zero_prints_without_a_sign(self, capsys):
        # the uncontrolled ring's top eigenvalue is a roundoff zero (-2.8e-16)
        assert main(["check", str(RING)]) == 0
        out = capsys.readouterr().out
        assert "  lambda1 = 0.000000   (c*lambda1 = 0.000000)\n" in out
        assert "  spectrum: [0.000000, -0.074165," in out
        assert "-0.000000" not in out

    def test_pin_outside_the_root_block_is_named(self):
        data = copy.deepcopy(BUILTIN_SCENARIOS["reducible-pinned"])
        data["pin"]["node"] = 3
        text = render_report(check_scenario(parse_scenario(data)))
        assert "    problem: pinned node 3 sits in block 2, not a root" in text.splitlines()


LINEAR_RING = Path(__file__).with_name("data") / "scenarios" / "linear-decay-ring.json"


class TestLinearDecayRing:
    # a pinned ring of five linear_decay nodes (rate 0.5, n = 2): the field
    # is one affine piece, so its QUAD margin is exact, rate + Delta = 1.5
    # at P = I, and its step matrix has no stage test rows
    def test_check_verifies_the_exact_certificate(self, capsys):
        assert main(["check", str(LINEAR_RING), "--require-conditions"]) == 0
        report = check_scenario(parse_scenario(str(LINEAR_RING)))
        assert report.theorem.holds and report.theorem.detail["certificate"] is None
        assert report.theorem.detail["certified_margin"] == 1.5
        assert report.min_c == pytest.approx(4.791288, abs=1e-6)
        assert "  minimal coupling strength c* = 4.791288" in capsys.readouterr().out

    def test_run_decays_at_the_rate_of_the_pinned_spectrum(self, tmp_path):
        # the pin error obeys e' = (-rate I + c A~) e, so it decays late at
        # -rate + c lambda1 (= -1.752273 at c = 6)
        cfg = parse_scenario(str(LINEAR_RING))
        argv = ["run", str(LINEAR_RING), "--require-conditions", "--out", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        predicted = -0.5 + cfg.pin.c * check_scenario(cfg).spectral.lambda1
        table = np.loadtxt(tmp_path / "linear-decay-ring_metrics.csv", delimiter=",", skiprows=1)
        times, pin_ratio = table[:, 0], table[:, 2]
        late = times >= 2.0
        rate = np.polyfit(times[late], np.log(pin_ratio[late]), 1)[0]
        assert rate == pytest.approx(predicted, rel=1e-9)

    def test_a_diverged_run_fits_up_to_its_last_sample(self, tmp_path):
        # at dt = 1 the RK4 step amplifies the fast modes of c A~, and the
        # run breaches the guard at t = 3 of its t_max = 10
        cfg = dataclasses.replace(parse_scenario(str(LINEAR_RING)), dt=1.0)
        result = run_scenario(cfg, out_dir=tmp_path)
        assert (result.exit_code, result.blowup_time) == (3, 3.0)
        assert result.fit_window == (0.0, 3.0)
        assert "fitted pin decay rate over [0, 3]:" in result.summary_text

    def test_the_fit_window_ends_at_a_last_sample_past_t_max(self, tmp_path):
        # three steps of 0.1 end at 0.30000000000000004, which grid_steps
        # accepts for t_max = 0.3; the fit keeps that last sample
        cfg = dataclasses.replace(parse_scenario(str(LINEAR_RING)), dt=0.1, t_max=0.3)
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.fit_window == (0.0, 3 * 0.1) and 3 * 0.1 > 0.3
        table = np.loadtxt(result.metrics_path, delimiter=",", skiprows=1)
        assert result.fitted_rate == np.polyfit(table[:, 0], np.log(table[:, 2]), 1)[0]


def _short(name, t_max=2.0):
    return dataclasses.replace(parse_scenario(name), t_max=t_max)


class TestRunScenario:
    def test_nodes_on_the_reference_leave_the_ratios_undefined(self, tmp_path):
        # every node starts at the reference, so no ratio has a start to divide by
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["initial_states"] = [[0.0, 0.0, 0.0]] * 3
        data["integration"]["t_max"] = 0.1
        result = run_scenario(parse_scenario(data), out_dir=tmp_path)
        lines = result.summary_path.read_text().splitlines()
        assert "final pin_ratio: undefined" in lines
        assert "fitted pin decay rate: unavailable" in lines
        rows = result.metrics_path.read_text().splitlines()[1:]
        assert len(rows) == 101
        assert all(row.split(",")[1:3] == ["nan", "nan"] for row in rows)

    def test_writes_only_under_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "results"
        result = run_scenario(_short("fig4-sym-pinned"), out_dir=out)
        assert result.exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "fig4-sym-pinned_metrics.csv",
            "fig4-sym-pinned_summary.txt",
            "fig4-sym-pinned_trajectory.csv",
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["results"]

    def test_csv_schemas(self, tmp_path):
        result = run_scenario(_short("fig4-sym-pinned", 0.5), out_dir=tmp_path)
        metrics_lines = result.metrics_path.read_text().splitlines()
        assert metrics_lines[0] == "t,sync_ratio,pin_ratio,lyapunov"
        assert len(metrics_lines) == 502
        first = metrics_lines[1].split(",")
        assert float(first[1]) == 1.0 and float(first[2]) == 1.0
        traj_lines = result.trajectory_path.read_text().splitlines()
        assert traj_lines[0] == "t,node,x1,x2,x3"
        # reference row (node 0) plus one row per node per sample
        assert len(traj_lines) == 1 + 501 * 4

    def test_metrics_taken_once_per_run(self, tmp_path, monkeypatch):
        # the Lyapunov monitor reads V(t) from the run's own metrics
        import pinnet.cli
        import pinnet.simulate

        calls = []
        real = pinnet.simulate.metrics

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pinnet.simulate, "metrics", counted)
        monkeypatch.setattr(pinnet.cli, "metrics", counted)
        result = run_scenario(_short("fig5-asym-pinned", 0.5), out_dir=tmp_path)
        assert result.monitor is not None
        assert len(calls) == 1

    def test_summary_mentions_verdicts(self, tmp_path):
        result = run_scenario(_short("fig4-sym-pinned"), out_dir=tmp_path)
        text = result.summary_path.read_text()
        assert "theorem2: holds" in text
        assert "final pin_ratio" in text
        assert result.monitor.violations == 0

    def test_roundoff_level_ratios_are_marked(self, tmp_path):
        # fig2's late sync ratio is roundoff of node states near 1.7e6; fig4's
        # 1e-70 ratios are differences of states of that same tiny scale, so
        # they are resolved
        fig2 = run_scenario(parse_scenario("fig2-sym-uncontrolled"), out_dir=tmp_path)
        fig4 = run_scenario(parse_scenario("fig4-sym-pinned"), out_dir=tmp_path)
        lines2 = fig2.summary_text.splitlines()
        sync_line = next(line for line in lines2 if line.startswith("final sync_ratio"))
        assert re.fullmatch(r"final sync_ratio: \S+ \(below roundoff floor \S+\)", sync_line)
        assert "final pin_ratio: 28678.4" in lines2
        assert fig4.final_sync < 1e-60 and fig4.final_pin < 1e-60
        assert "roundoff" not in fig4.summary_text
        for result in (fig2, fig4):
            lines = result.metrics_path.read_text().splitlines()
            assert lines[0] == "t,sync_ratio,pin_ratio,lyapunov"
            assert lines[-1].split(",")[1] == format(result.final_sync, ".17g")

    def test_deterministic_outputs(self, tmp_path):
        r1 = run_scenario(_short("fig4-sym-pinned"), out_dir=tmp_path / "a")
        r2 = run_scenario(_short("fig4-sym-pinned"), out_dir=tmp_path / "b")
        assert r1.metrics_path.read_bytes() == r2.metrics_path.read_bytes()
        assert r1.trajectory_path.read_bytes() == r2.trajectory_path.read_bytes()

    def test_csv_writers_match_per_value_formatting(self, tmp_path):
        # several formatting blocks (the last one partial), special values and
        # a None ratio, against one format(v, ".17g") per value; m = 3 is the
        # built-ins' node count. The reference moves, rests, or rests at 0
        # but for one -0.0, which prints differently
        rng = np.random.default_rng(3)
        samples = 2500
        signed_zero = np.zeros((samples, 3))
        signed_zero[1700, 1] = -0.0

        def fmt(v):
            return format(float(v), ".17g")

        for m, n, reference in (
            (2, 2, rng.normal(size=(samples, 2))),
            (3, 3, rng.normal(size=(samples, 3))),
            (3, 3, np.tile([0.5, -2.0, 1e-300], (samples, 1))),
            (3, 3, signed_zero),
        ):
            states = rng.normal(size=(samples, m, n)) * 10.0 ** rng.integers(
                -300, 300, (samples, m, n)
            )
            states[0, 0, :2] = [np.nan, -0.0]
            states[1, 1, :2] = [np.inf, -np.inf]
            traj = Trajectory(
                times=np.arange(samples) * 1e-3, states=states, reference=reference
            )
            write_trajectory_csv(tmp_path / "t.csv", traj, csvtext.cells(traj.times))
            expected = ["t,node," + ",".join(f"x{k + 1}" for k in range(n))]
            for i, t in enumerate(traj.times):
                for node, row in enumerate([traj.reference[i], *traj.states[i]]):
                    expected.append(f"{fmt(t)},{node}," + ",".join(fmt(v) for v in row))
            assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"

        series = MetricSeries(
            times=traj.times, sync_ratio=None, pin_ratio=rng.random(samples),
            lyapunov=rng.random(samples) * 1e-200,
        )
        write_metrics_csv(tmp_path / "m.csv", series, csvtext.cells(series.times))
        expected = ["t,sync_ratio,pin_ratio,lyapunov"] + [
            f"{fmt(t)},nan,{fmt(q)},{fmt(v)}"
            for t, q, v in zip(series.times, series.pin_ratio, series.lyapunov)
        ]
        assert (tmp_path / "m.csv").read_text() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_summary_fit_ends_before_the_first_zero_pin_ratio(self, k):
        # the ratio starts at 1: a zero at sample 1 leaves a one-sample window,
        # which gives no fit; a first zero at sample k >= 2 ends it at t_(k-1)
        times = np.arange(8) * 0.5
        ratio = np.exp(-0.5 * times)
        ratio[k:] = 0.0
        series = MetricSeries(times=times, sync_ratio=None, pin_ratio=ratio, lyapunov=ratio)
        rate, window = _summary_fit(series)
        if k == 1:
            assert (rate, window) == (None, None)
        else:
            assert window == (0.0, times[k - 1]) and rate == pytest.approx(-0.5)

    def test_require_conditions_blocks_uncontrolled(self, tmp_path):
        out = tmp_path / "blocked"
        result = run_scenario(
            _short("fig2-sym-uncontrolled"), out_dir=out, require_conditions=True
        )
        assert result.exit_code == 2
        assert not out.exists()

    def test_divergence_flagged(self, tmp_path):
        data = {
            "name": "blowup",
            "coupling": [[0.0]],
            "dynamics": {"kind": "linear_decay", "params": {"rate": -5.0}},
            "initial_states": [[1.0]],
            "reference_initial": [0.0],
            "integration": {"dt": 0.01, "t_max": 6.0},
        }
        result = run_scenario(parse_scenario(data), out_dir=tmp_path)
        assert result.exit_code == 3
        assert result.diverged
        assert result.blowup_time == pytest.approx(np.log(1e9) / 5.0, abs=0.05)
        assert "DIVERGED" in result.summary_path.read_text()
        assert result.metrics_path.exists()


SUMMARIES = Path(__file__).with_name("data") / "summaries"


class TestShippedSummaries:
    # the summaries `pinnet run` writes for the built-ins at their shipped
    # horizons. They were written by the plain RK4 loop; the affine steps
    # move states by at most 2.3e-13 relative, below every printed digit
    # but one: fig2's final sync ratio, roundoff below its printed floor,
    # read 0 there, 7.1892e-12 with one matrix per step, 1.05568e-11 with
    # blocks of steps and 5.45245e-12 with the step matrix formed from the
    # RK4 stage maps
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_summary_text_is_unchanged(self, tmp_path, name):
        result = run_scenario(parse_scenario(name), out_dir=tmp_path)
        want = (SUMMARIES / f"{name}_summary.txt").read_text()
        assert result.summary_path.read_text() == want

    def test_fig2_final_sync_ratio_is_below_its_roundoff_floor(self):
        # the uncontrolled symmetric network synchronizes to roundoff, so its
        # printed final sync ratio is noise, whatever digits it shows
        cfg = parse_scenario("fig2-sym-uncontrolled")
        traj = integrate(build_system(cfg), cfg.initial_states, cfg.reference_initial,
                         cfg.dt, cfg.t_max)
        series = metrics(traj)
        assert series.sync_ratio[-1] < series.sync_floor


class TestSweep:
    def test_parse_sweep(self):
        np.testing.assert_allclose(parse_sweep("c=8:12:3"), [8.0, 10.0, 12.0])
        with pytest.raises(ScenarioError):
            parse_sweep("eps=1:2:3")
        with pytest.raises(ScenarioError):
            parse_sweep("c=1:2")

    def test_bad_ranges_are_rejected(self):
        with pytest.raises(ScenarioError, match="'c=6:14:1': one point cannot span 6 to 14"):
            parse_sweep("c=6:14:1")
        np.testing.assert_array_equal(parse_sweep("c=6:6:1"), [6.0])
        for spec in ("c=inf:inf:1", "c=nan:1:2", "c=1:inf:3", "c=2:1:3"):
            with pytest.raises(ScenarioError, match=f"bad sweep range '{spec}'"):
                parse_sweep(spec)

    @pytest.mark.parametrize(
        "spec, first, second",
        [("c=10:10.000001:3", "10.0", "10.000000499999999"), ("c=10:10:2", "10.0", "10.0")],
    )
    def test_points_that_share_output_names_are_rejected(self, tmp_path, spec, first, second):
        cfg = _short("fig4-sym-pinned", t_max=0.5)
        match = f"c={re.escape(first)} and c={re.escape(second)} would share"
        with pytest.raises(ScenarioError, match=match):
            run_sweep(cfg, spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_nonpositive_lower_bound_is_a_spec_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "fig4-sym-pinned", "--tmax", "1", "--sweep", "c=0:5:3"]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bad sweep range 'c=0:5:3': need finite 0 < a <= b" in err
        assert not out.exists()

    def test_unallocatable_point_count_is_a_spec_error(self, monkeypatch):
        def fail(lo, hi, count):
            raise MemoryError(f"Unable to allocate {count * 8} bytes")

        monkeypatch.setattr(np, "linspace", fail)
        message = r"^sweep 'c=1:2:1000000000000': 1000000000000 points cannot be allocated \(Unable"
        with pytest.raises(ScenarioError, match=message):
            parse_sweep("c=1:2:1000000000000")

    def test_shared_labels_are_a_spec_error(self):
        with pytest.raises(ScenarioError, match="c=10.0 and c=10.0 would share"):
            parse_sweep("c=10:10:2")

    def test_sweep_table_margin_flip(self, tmp_path):
        code = main(
            [
                "run",
                "fig4-sym-pinned",
                "--tmax",
                "1",
                "--sweep",
                "c=8:12:3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        table = (tmp_path / "fig4-sym-pinned_sweep.csv").read_text().splitlines()
        assert table[0] == "c,margin,holds,final_pin_ratio,diverged"
        holds = [row.split(",")[2] for row in table[1:]]
        assert holds == ["0", "1", "1"]

    def test_points_match_run_scenario_byte_for_byte(self, tmp_path):
        # the batched sweep writes what a solo run of each point writes
        cfg = _short("fig4-sym-pinned", t_max=0.5)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_sweep(cfg, "c=8:12:3", tmp_path / "sweep") == 0
        for c in (8.0, 10.0, 12.0):
            stem = f"fig4-sym-pinned_sweep_c{c:g}"
            point = dataclasses.replace(
                cfg,
                pin=dataclasses.replace(cfg.pin, c=c),
                outputs={
                    "trajectory": f"{stem}_trajectory.csv",
                    "metrics": f"{stem}_metrics.csv",
                    "summary": f"{stem}_summary.txt",
                },
            )
            run_scenario(point, out_dir=tmp_path / "solo")
            for name in point.outputs.values():
                solo = (tmp_path / "solo" / name).read_bytes()
                assert (tmp_path / "sweep" / name).read_bytes() == solo

    def test_diverging_point_is_flagged_and_the_rest_run_on(self, tmp_path):
        # x' = 5x - c (x - s): c = 1 grows past the guard, c = 5 holds, c = 9 decays
        data = {
            "name": "growth",
            "coupling": [[0.0]],
            "dynamics": {"kind": "linear_decay", "params": {"rate": -5.0}},
            "pin": {"node": 1, "epsilon": 1.0, "c": 1.0},
            "initial_states": [[1.0]],
            "reference_initial": [0.0],
            "integration": {"dt": 0.01, "t_max": 6.0},
        }
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_sweep(parse_scenario(data), "c=1:9:3", tmp_path) == 0
        rows = (tmp_path / "growth_sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["1", "0", "0"]
        assert "DIVERGED" in (tmp_path / "growth_sweep_c1_summary.txt").read_text()
        assert "steps=600" in (tmp_path / "growth_sweep_c9_summary.txt").read_text()

    def test_a_diverged_point_matches_its_solo_run_byte_for_byte(self, tmp_path):
        # the growth sweep above: c = 1 stops early on a prefix of the grid
        # whose time cells the sweep formats once for all three points
        data = {
            "name": "growth",
            "coupling": [[0.0]],
            "dynamics": {"kind": "linear_decay", "params": {"rate": -5.0}},
            "pin": {"node": 1, "epsilon": 1.0, "c": 1.0},
            "initial_states": [[1.0]],
            "reference_initial": [0.0],
            "integration": {"dt": 0.01, "t_max": 6.0},
        }
        cfg = parse_scenario(data)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_sweep(cfg, "c=1:9:3", tmp_path / "sweep") == 0
        for c, code in ((1.0, 3), (5.0, 0), (9.0, 0)):
            stem = f"growth_sweep_c{c:g}"
            point = dataclasses.replace(
                cfg,
                pin=dataclasses.replace(cfg.pin, c=c),
                outputs={
                    "trajectory": f"{stem}_trajectory.csv",
                    "metrics": f"{stem}_metrics.csv",
                    "summary": f"{stem}_summary.txt",
                },
            )
            assert run_scenario(point, out_dir=tmp_path / "solo").exit_code == code
            for name in point.outputs.values():
                solo = (tmp_path / "solo" / name).read_bytes()
                assert (tmp_path / "sweep" / name).read_bytes() == solo
        times = {}
        for c in (1, 9):
            lines = (tmp_path / "sweep" / f"growth_sweep_c{c}_metrics.csv").read_text().splitlines()
            times[c] = [line.split(",")[0] for line in lines[1:]]
        assert 1 < len(times[1]) < len(times[9]) == 601
        assert times[1] == times[9][: len(times[1])]

    @staticmethod
    def _counted_cells(monkeypatch):
        """The number of values each call of ``csvtext._cells`` formats."""
        csvtext._tables()  # its self-check formats values too
        counted = []
        cells = csvtext._cells

        def counting(v, tables):
            counted.append(len(v))
            return cells(v, tables)

        monkeypatch.setattr(csvtext, "_cells", counting)
        return counted

    def test_a_run_formats_its_times_once(self, tmp_path, monkeypatch):
        # fig4's reference rests at the origin: per sample the m n states,
        # once the time; then the reference, the node numbers and, in the
        # metrics CSV, three values a sample
        cfg = _short("fig4-sym-pinned", t_max=0.25)
        counted = self._counted_cells(monkeypatch)
        assert run_scenario(cfg, out_dir=tmp_path).exit_code == 0
        samples, m, n = 251, 3, 3
        assert sum(counted) == samples * (m * n + 4) + n + m + 1

    def test_a_sweep_formats_its_grid_once(self, tmp_path, monkeypatch):
        # the grid once; each point's states, reference, node numbers and
        # metrics; then five values a row of the sweep table
        cfg = _short("fig4-sym-pinned", t_max=0.25)
        counted = self._counted_cells(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_sweep(cfg, "c=6:14:3", tmp_path) == 0
        samples, m, n, points = 251, 3, 3, 3
        per_point = samples * (m * n + 3) + n + m + 1
        assert sum(counted) == samples + points * per_point + 5 * points


class TestMainExitCodes:
    def test_check_ok(self, capsys):
        assert main(["check", "fig4-sym-pinned"]) == 0
        out = capsys.readouterr().out
        assert "theorem2: holds" in out
        assert "lambda1" in out

    def test_check_require_conditions_failure(self):
        assert main(["check", "fig2-sym-uncontrolled", "--require-conditions"]) == 2

    def test_validation_error(self, capsys):
        assert main(["run", "missing-scenario.json"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["bogus", "c=10:10:2", "c=-5:5:3"])
    def test_dry_run_checks_the_sweep_spec(self, capsys, spec):
        assert main(["run", "fig4-sym-pinned", "--dry-run", "--sweep", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(spec) in err

    def test_sweep_refuses_require_conditions(self, tmp_path, capsys):
        # a sweep integrates every point, so the gate could only be ignored
        out = tmp_path / "out"
        argv = ["run", "fig2-sym-uncontrolled", "--tmax", "1", "--sweep", "c=6:14:3"]
        assert main(argv + ["--require-conditions", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--sweep and --require-conditions cannot be combined" in err
        assert not out.exists()

    def test_nul_in_a_name_fails_before_the_run(self, tmp_path, capsys):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["name"] = "a\0b"
        del data["outputs"]  # the output names start with the name
        path = tmp_path / "nul.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: name must be a plain file name")
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, named",
        [("pin.epsilon", "pin: feedback gain epsilon"), ("pin.c", "pin: coupling strength c"),
         ("integration.dt", "integration: dt"), ("integration.t_max", "integration: t_max"),
         ("certificate.eta", "certificate: eta"), ("dynamics.params.k", "dynamics.params.k")],
        ids=["pin.epsilon", "pin.c", "integration.dt", "integration.t_max", "certificate.eta",
             "dynamics.params.k"],
    )
    def test_huge_numbers_exit_with_a_named_field(self, tmp_path, capsys, field, named):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        *parents, key = field.split(".")
        target = data
        for name in parents:
            target = target[name]
        target[key] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 1
        assert f"{named} is too large for a float" in capsys.readouterr().err

    def test_dry_run_prints_config(self, capsys):
        assert main(["run", "fig5-asym-pinned", "--dry-run"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == BUILTIN_SCENARIOS["fig5-asym-pinned"]

    def test_run_short(self, tmp_path, capsys):
        code = main(
            ["run", "fig4-sym-pinned", "--tmax", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "final pin_ratio" in capsys.readouterr().out

    def test_run_require_conditions_pass_through(self, tmp_path):
        code = main(
            [
                "run",
                "fig4-sym-pinned",
                "--tmax",
                "1",
                "--out",
                str(tmp_path),
                "--require-conditions",
            ]
        )
        assert code == 0
        assert (tmp_path / "fig4-sym-pinned_metrics.csv").exists()

    def test_bad_dt_override(self, capsys):
        assert main(["run", "fig4-sym-pinned", "--dt", "-1"]) == 1

    @pytest.mark.parametrize("dt, tmax", [("1e-3", "1e12"), ("1e-300", "1")])
    def test_unallocatable_horizon_exits_with_the_fields_named(self, tmp_path, capsys, dt, tmax):
        # 10^15 steps and more: numpy refuses the buffer at once
        argv = ["run", "fig4-sym-pinned", "--dt", dt, "--tmax", tmax, "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dt=") and "t_max=" in err and "steps" in err
        assert "Traceback" not in err

    def test_non_dividing_override(self, capsys):
        assert main(["run", "fig4-sym-pinned", "--dt", "0.3", "--tmax", "1"]) == 1
        err = capsys.readouterr().err
        assert "--dt/--tmax" in err and "dt=0.3" in err and "t_max=1" in err

    def test_negative_quad_samples_rejected(self, capsys):
        assert main(["check", "fig4-sym-pinned", "--quad-samples", "-5"]) == 1
        assert "quad_samples must be a whole number >= 0, got -5" in capsys.readouterr().err
        assert main(["check", "fig4-sym-pinned", "--quad-samples", "0"]) == 0
        assert "QUAD" not in capsys.readouterr().out

    def test_negative_seed_rejected(self, capsys):
        assert main(["check", "fig4-sym-pinned", "--quad-samples", "10", "--seed", "-1"]) == 1
        assert "seed must be a whole number >= 0, got -1" in capsys.readouterr().err

    def test_counts_take_the_whole_number_rule(self, tmp_path, capsys):
        # a whole float is a count, on the command line as in check_scenario
        assert main(["check", "fig4-sym-pinned", "--quad-samples", "1e3", "--seed", "1e0"]) == 0
        assert "1000 samples, seed 1," in capsys.readouterr().out
        argv = ["run", "fig4-sym-pinned", "--tmax", "1", "--sweep", "c=6:14:3.0"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        rows = (tmp_path / "fig4-sym-pinned_sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["6", "10", "14"]
        capsys.readouterr()
        assert main(["check", "fig4-sym-pinned", "--quad-samples", "2.5"]) == 1
        assert "quad_samples must be a whole number >= 0, got 2.5" in capsys.readouterr().err
        assert main(["check", "fig4-sym-pinned", "--seed", "x"]) == 1
        assert "argument --seed: invalid" in capsys.readouterr().err
        argv = ["run", "fig4-sym-pinned", "--dry-run", "--sweep", "c=6:14:2.5"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "sweep 'c=6:14:2.5': n must be a whole number >= 1, got 2.5" in err

    def test_run_has_no_seed_flag(self, capsys):
        assert main(["run", "fig4-sym-pinned", "--seed", "1", "--dry-run"]) == 1

    def test_usage_error_exits_1(self, capsys):
        # 2 is kept for a failed condition under --require-conditions
        assert main(["check", "fig4-sym-pinned", "--bogus"]) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main(["run", "fig4-sym-pinned", "--dt", "abc"]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "edit, prefix",
        [
            (lambda d: d["integration"].update(tmax=1),
             "unknown integration field(s): integration.tmax"),
            (lambda d: d["pin"].update(eps=1), "unknown pin field(s): pin.eps"),
            (lambda d: d.update(coupling_function={"kind": ["identity"]}), "coupling_function: "),
            (lambda d: d.update(coupling={"a": 1}), "coupling: "),
            (lambda d: d.update(coupling=[["a", "b"], ["c", "d"]]), "coupling: "),
            (lambda d: d.update(
                outputs={"trajectory": "a.csv", "metrics": "a.csv", "summary": "s.txt"}),
             "outputs must name three different files"),
        ],
        ids=["integration.tmax", "pin.eps", "kind-list", "coupling-dict", "coupling-strings",
             "duplicate-outputs"],
    )
    def test_malformed_scenario_exits_with_its_field(self, tmp_path, capsys, edit, prefix):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: " + prefix)

    def test_bad_params_exit_with_a_named_field(self, tmp_path, capsys):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["dynamics"]["params"] = [1, 2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "error: dynamics.params must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "c=6:14:3"]], ids=["run", "sweep"])
    def test_out_naming_a_file_is_an_error(self, tmp_path, capsys, sweep):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (blocker, blocker / "sub"):
            argv = ["run", "fig4-sym-pinned", "--tmax", "1", *sweep, "--out", str(out)]
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "c=6:14:3"]], ids=["run", "sweep"])
    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys, sweep):
        # 10^15 steps: numpy refuses the trajectory buffer before touching memory
        out = tmp_path / "X"
        argv = ["run", "fig4-sym-pinned", "--tmax", "1e12", *sweep, "--out", str(out)]
        assert main(argv) == 1
        assert "cannot be allocated" in capsys.readouterr().err
        assert not out.exists()

    def test_run_divergence_exit_code(self, tmp_path):
        data = {
            "name": "blowup",
            "coupling": [[0.0]],
            "dynamics": {"kind": "linear_decay", "params": {"rate": -5.0}},
            "initial_states": [[1.0]],
            "reference_initial": [0.0],
            "integration": {"dt": 0.01, "t_max": 6.0},
        }
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3


def _pinnet(args, cwd, flags=(), **env):
    """``python *flags -m pinnet *args`` in a child process, with the package
    these tests imported first on its path and ``env`` added to its environment."""
    src = str(Path(pinnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, *flags, "-m", "pinnet", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **env},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


class TestCommandProcess:
    def test_closed_stdout_is_a_normal_end(self, tmp_path):
        # a 150-node ring prints 257 KB of --dry-run JSON, more than a pipe
        # holds, so its print meets the closed pipe
        m = 150
        ring = copy.deepcopy(BUILTIN_SCENARIOS["fig2-sym-uncontrolled"])
        ring["name"] = "ring150"
        eye = np.eye(m)
        ring["coupling"] = (np.roll(eye, 1, 1) + np.roll(eye, -1, 1) - 2 * eye).tolist()
        ring["initial_states"] = [[0.01 * i, 0.0, 0.0] for i in range(m)]
        (tmp_path / "ring.json").write_text(json.dumps(ring))
        sweep = ["run", "fig4-sym-pinned", "--tmax", "1", "--sweep", "c=6:14:9", "--out", "sweep"]
        for args in (["run", "ring.json", "--dry-run"], sweep):
            with _pinnet(args, tmp_path) as proc:
                assert proc.stdout.readline()
                proc.stdout.close()
                assert proc.stderr.read() == b""
                assert proc.wait() == 0
        # every point's three files and the table
        assert len(list((tmp_path / "sweep").iterdir())) == 9 * 3 + 1
        with _pinnet(["check", "fig2-sym-uncontrolled", "--require-conditions"], tmp_path) as proc:
            proc.stdout.close()
            assert proc.stderr.read() == b"" and proc.wait() == 2

    def test_summary_is_utf8_under_an_ascii_locale(self, tmp_path):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["name"] = "r\u00e9seau"
        data["integration"]["t_max"] = 0.1
        data["outputs"] = {"trajectory": "t.csv", "metrics": "m.csv", "summary": "s.txt"}
        (tmp_path / "reseau.json").write_text(json.dumps(data))
        # stdout can carry the name; the locale's encoding, ASCII, cannot
        args = ["run", "reseau.json", "--out", "out"]
        proc = _pinnet(args, tmp_path, ["-X", "utf8=0"], LC_ALL="C", PYTHONIOENCODING="utf-8")
        out, err = proc.communicate()
        assert (proc.returncode, err) == (0, b"")
        summary = (tmp_path / "out" / "s.txt").read_bytes()
        assert b"\r" not in summary and summary == out
        assert summary.decode().startswith("condition report: r\u00e9seau\n")

    def test_ascii_stdout_escapes_what_it_cannot_encode(self, tmp_path):
        data = copy.deepcopy(BUILTIN_SCENARIOS["fig4-sym-pinned"])
        data["name"] = "r\u00e9seau"
        data["integration"]["t_max"] = 0.1
        data["outputs"] = {"trajectory": "t.csv", "metrics": "m.csv", "summary": "s.txt"}
        (tmp_path / "reseau.json").write_text(json.dumps(data))
        # an empty PYTHONIOENCODING is unset: stdout takes the locale's ASCII
        for args in (["check", "reseau.json"], ["run", "reseau.json", "--out", "out"]):
            proc = _pinnet(args, tmp_path, ["-X", "utf8=0"], LC_ALL="C", PYTHONIOENCODING="")
            out, err = proc.communicate()
            assert (proc.returncode, err) == (0, b"")
            assert out.startswith(b"condition report: r\\xe9seau\n")
        summary = (tmp_path / "out" / "s.txt").read_bytes()
        assert summary.decode().startswith("condition report: r\u00e9seau\n")
