"""Scenario generation determinism and the published aggregate fixtures.

Values tagged "pinned:" were recorded once from the pinned generator
(PCG64 raw stream + Box-Muller) and are expected to reproduce bit-for-bit.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import simulate as simulate_oracle

from sqfr import (
    ConfigError,
    GroupSpec,
    GroupedScores,
    ScenarioSpec,
    builtin_fixtures,
    builtin_scenarios,
    evaluate_component,
    generate,
    load_csv,
    lwm_aggregate,
    mean_aggregate,
    save,
    scenarios,
)
from sqfr.cli import main
from sqfr.scenarios import DISTRIBUTIONS


def normal_spec(seed=7, n=200):
    return ScenarioSpec(
        "demo",
        [
            GroupSpec("A", "normal", {"mean": 60.0, "stddev": 5.0}, n),
            GroupSpec("B", "normal", {"mean": 70.0, "stddev": 5.0}, n),
        ],
        seed=seed,
    )


#: One group of each kind the transform draws: a normal, mixtures of one to
#: three components (one with a zero stddev) and a constant above the clamp.
TRANSFORM_GROUPS = {
    "normal": ("normal", {"mean": 60, "stddev": 15.5}),
    "mix1": ("mixture_of_normals", {"means": [55.5], "stddevs": [20], "weights": [1]}),
    "mix2": ("mixture_of_normals", {"means": [45, 75], "stddevs": [5, 10], "weights": [0.3, 0.7]}),
    "mix3": ("mixture_of_normals",
             {"means": [30, 60.25, 90], "stddevs": [8, 0, 8], "weights": [0.2, 0.5, 0.3]}),
    "constant": ("constant", {"value": 95}),
}


def transform_doc(counts, quantize):
    """A spec document of the TRANSFORM_GROUPS named in ``counts`` (label to
    sample count), clamped to [40.25, 80.5]: both tails are cut, and rint
    can leave the range, so the second clamp has work to do."""
    groups = [{"label": label, "distribution": TRANSFORM_GROUPS[label][0],
               "parameters": TRANSFORM_GROUPS[label][1], "sample_count": count}
              for label, count in counts.items()]
    return {"name": "bits", "seed": 12345, "clamp_range": [40.25, 80.5],
            "quantize": quantize, "groups": groups}


def assert_same_bits(got, want):
    assert list(got) == list(want)
    for label in want:
        assert got[label].view(np.int64).tolist() == want[label].view(np.int64).tolist(), label


class TestGenerate:
    def test_deterministic_for_fixed_seed(self):
        a = generate(normal_spec())
        b = generate(normal_spec())
        assert a == b

    def test_seed_changes_samples(self):
        a = generate(normal_spec(seed=7))
        b = generate(normal_spec(seed=8))
        assert not np.array_equal(a.groups["A"], b.groups["A"])

    def test_constant_distribution(self):
        spec = ScenarioSpec(
            "flat", [GroupSpec(l, "constant", {"value": 87.5}, 50) for l in "AB"], seed=1
        )
        out = generate(spec)
        assert np.all(out.groups["A"] == 87.5)
        assert all(s.value == 1.0 for s in evaluate_component(out))

    def test_clamp_and_quantize(self):
        spec = ScenarioSpec(
            "edge",
            [
                GroupSpec("A", "normal", {"mean": 99.0, "stddev": 15.0}, 400),
                GroupSpec("B", "normal", {"mean": 1.0, "stddev": 15.0}, 400),
            ],
            seed=3,
        )
        out = generate(spec)
        pooled = np.concatenate(list(out.groups.values()))
        assert pooled.min() >= 0 and pooled.max() <= 100
        assert np.all(pooled == np.rint(pooled))

    def test_unquantized_keeps_fractions(self):
        spec = normal_spec()
        spec.quantize = False
        pooled = np.concatenate(list(generate(spec).groups.values()))
        assert np.any(pooled != np.rint(pooled))

    def test_mixture_is_bimodal(self):
        spec = ScenarioSpec(
            "mix",
            [
                GroupSpec(
                    "A",
                    "mixture_of_normals",
                    {"means": [20.0, 80.0], "stddevs": [2.0, 2.0], "weights": [0.5, 0.5]},
                    600,
                ),
                GroupSpec("B", "normal", {"mean": 50.0, "stddev": 2.0}, 100),
            ],
            seed=9,
        )
        a = generate(spec).groups["A"]
        assert np.sum(a < 40) > 200 and np.sum(a > 60) > 200
        assert np.sum((a > 40) & (a < 60)) < 20

    def test_evaluating_leaves_the_samples_unchanged(self):
        out = generate(builtin_scenarios()["q3"])
        drawn = {label: g.copy() for label, g in out.groups.items()}
        assert any(np.any(np.diff(g) < 0) for g in drawn.values())  # stream order
        evaluate_component(out, thresholds_mode="observed")
        mean_aggregate(out)
        lwm_aggregate(out)
        assert out == GroupedScores(out.component_id, drawn)
        assert all(g.flags.writeable for g in out.groups.values())
        assert out == generate(builtin_scenarios()["q3"])

    @pytest.mark.parametrize("quantize", [True, False])
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_drawn_bits_equal_the_whole_array_oracle(self, monkeypatch, block, quantize):
        # counts around one and two blocks: the normals go block by block
        # over ceil(count/2) pairs, the mixture picks over count draws
        monkeypatch.setattr(scenarios, "_DRAW_BLOCK", block)
        edges = {1, 2, 3, block - 1, block, block + 1, 2 * block - 1, 2 * block,
                 2 * block + 1, 2 * block + 2, 5 * block + 4} - {0}
        for count in sorted(edges):
            doc = transform_doc(dict.fromkeys(TRANSFORM_GROUPS, count), quantize)
            assert_same_bits(generate(ScenarioSpec.from_dict(doc)).groups, simulate_oracle(doc))

    @pytest.mark.parametrize("quantize", [True, False])
    def test_a_drawn_zero_is_never_negative(self, quantize):
        # before the last step N and M hold -0s beside 0s (draws about -0
        # with no spread, and M's part about -5 clamped up to a low of -0),
        # and C only -0s
        doc = {"name": "z", "seed": 2, "clamp_range": [-0.0, 100], "quantize": quantize,
               "groups": [
                   {"label": "N", "distribution": "normal",
                    "parameters": {"mean": -0.0, "stddev": 0}, "sample_count": 7},
                   {"label": "M", "distribution": "mixture_of_normals",
                    "parameters": {"means": [-0.0, -5], "stddevs": [0, 1], "weights": [0.5, 0.5]},
                    "sample_count": 20},
                   {"label": "C", "distribution": "constant",
                    "parameters": {"value": -0.0}, "sample_count": 3}]}
        got = generate(ScenarioSpec.from_dict(doc)).groups
        assert not any(np.signbit(g).any() for g in got.values())
        assert all(np.all(g == 0.0) for g in got.values())
        assert_same_bits(got, simulate_oracle(doc))

    @pytest.mark.parametrize("quantize", [True, False])
    def test_drawn_bits_equal_the_oracle_around_the_block(self, quantize):
        block = scenarios._DRAW_BLOCK
        counts = {"normal": 2 * block + 1, "mix1": block + 1, "mix2": block - 1,
                  "mix3": 2 * block, "constant": block}
        doc = transform_doc(counts, quantize)
        assert_same_bits(generate(ScenarioSpec.from_dict(doc)).groups, simulate_oracle(doc))

    def test_generation_holds_little_beside_its_samples(self):
        # each group is drawn in the buffer of its own raw draws, so beside
        # the samples only a mixture's picks and one block of temporaries live
        counts = {"normal": 200_000, "mix1": 200_001, "mix2": 199_999, "mix3": 200_000}
        spec = ScenarioSpec.from_dict(transform_doc(counts, quantize=True))
        tracemalloc.start()
        try:
            out = generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sizes = [g.nbytes for g in out.groups.values()]
        assert peak < sum(sizes) + 2 * max(sizes) + 4 * 2**20

    def test_mixture_draw_holds_its_samples_and_one_block(self):
        # the normals come from a copy of the stream advanced past the picks,
        # so no buffer of n picks lives beside them
        n = 200_001
        spec = ScenarioSpec.from_dict(transform_doc({"mix3": n}, quantize=True))
        next(scenarios.draw_groups(ScenarioSpec.from_dict(transform_doc({"mix3": 5}, True))))
        tracemalloc.start()  # after a first draw, so one-time set-up is not counted
        try:
            _, samples = next(scenarios.draw_groups(spec))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert samples.size == n
        # the draw buffer holds ceil(n/2) pairs; a block's temporaries are
        # at most four arrays of _DRAW_BLOCK 8-byte values
        assert peak < 8 * (n + 1) + 4 * 8 * scenarios._DRAW_BLOCK + 128 * 2**10

    def test_pinned_q1_mean(self):
        out = generate(builtin_scenarios()["q1"])
        assert float(out.groups["A"].mean()) == 81.47  # pinned: seed 101
        assert out.groups["A"].mean() == pytest.approx(81.3, abs=0.5)

    def test_generated_scores_respect_clamp_range(self):
        spec = normal_spec()
        spec.clamp_range = (40.0, 60.0)
        pooled = np.concatenate(list(generate(spec).groups.values()))
        assert pooled.min() >= 40 and pooled.max() <= 60


class TestSpecValidation:
    def test_unknown_distribution(self):
        spec = ScenarioSpec("x", [GroupSpec("A", "poisson", {}, 5)], seed=1)
        with pytest.raises(ConfigError, match="unknown distribution"):
            generate(spec)

    def test_weights_must_sum_to_one(self):
        spec = ScenarioSpec(
            "x",
            [
                GroupSpec(
                    "A",
                    "mixture_of_normals",
                    {"means": [1, 2], "stddevs": [1, 1], "weights": [0.7, 0.7]},
                    5,
                )
            ],
            seed=1,
        )
        with pytest.raises(ConfigError, match="sum to 1"):
            generate(spec)

    def test_negative_stddev(self):
        spec = ScenarioSpec("x", [GroupSpec("A", "normal", {"mean": 1, "stddev": -1}, 5)], seed=1)
        with pytest.raises(ConfigError, match="stddev"):
            generate(spec)

    def test_sample_count_positive(self):
        spec = ScenarioSpec("x", [GroupSpec("A", "constant", {"value": 1}, 0)], seed=1)
        with pytest.raises(ConfigError, match="sample_count"):
            generate(spec)

    def test_duplicate_labels(self):
        spec = ScenarioSpec(
            "x",
            [GroupSpec("A", "constant", {"value": 1}, 5), GroupSpec("A", "constant", {"value": 2}, 5)],
            seed=1,
        )
        with pytest.raises(ConfigError, match="unique"):
            generate(spec)

    def test_from_json_file(self, tmp_path):
        doc = {
            "name": "custom",
            "seed": 5,
            "quantize": False,
            "groups": [
                {"label": "A", "distribution": "normal",
                 "parameters": {"mean": 10, "stddev": 1}, "sample_count": 20},
                {"label": "B", "distribution": "constant",
                 "parameters": {"value": 12}, "sample_count": 4},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = ScenarioSpec.from_json_file(path)
        assert spec.name == "custom" and spec.seed == 5 and not spec.quantize
        out = generate(spec)
        assert out.groups["B"].tolist() == [12.0] * 4

    def test_malformed_spec_document(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(ConfigError, match="^scenario spec: missing field 'groups'$"):
            ScenarioSpec.from_json_file(path)


def valid_spec_doc():
    return {
        "name": "x",
        "seed": 1,
        "groups": [
            {"label": "A", "distribution": "normal",
             "parameters": {"mean": 50, "stddev": 2}, "sample_count": 5},
            {"label": "B", "distribution": "mixture_of_normals",
             "parameters": {"means": [40, 60], "stddevs": [1, 2], "weights": [0.5, 0.5]},
             "sample_count": 5},
            {"label": "C", "distribution": "constant",
             "parameters": {"value": 3}, "sample_count": 5},
        ],
    }


def spec_with(**changes):
    """A valid spec document with top-level keys or one group's fields replaced."""
    doc = valid_spec_doc()
    for key, value in changes.items():
        if key in ("A", "B", "C"):
            group = next(g for g in doc["groups"] if g["label"] == key)
            group.update(value)
        else:
            doc[key] = value
    return doc


#: Spec documents that from_dict must reject, with the ConfigError each raises.
INVALID_SPECS = [
    (spec_with(name=""), "scenario name must be a non-empty string, got ''"),
    (spec_with(name=["x"]), r"scenario name must be a non-empty string, got \['x'\]"),
    ([spec_with()], "scenario spec must be an object, got list"),
    (spec_with(groups=[]), "has no groups"),
    (spec_with(C={"label": "A"}), "labels must be unique and non-empty"),
    (spec_with(C={"label": ""}), "labels must be unique and non-empty"),
    (spec_with(C={"label": ["C"]}),
     r"labels must be unique and non-empty strings, got \['A', 'B', \['C'\]\]"),
    (spec_with(C={"label": {"C": 1}}), "labels must be unique and non-empty strings"),
    (spec_with(C={"label": True}), "labels must be unique and non-empty strings"),
    (spec_with(groups={"A": 1}), "groups must be a list of objects"),
    (spec_with(groups=[1]), "groups must be a list of objects"),
    (spec_with(A={"parameters": [50, 2]}),
     r"group 'A': parameters must be an object, got \[50, 2\]"),
    (spec_with(clamp_range=[0, 0]), "clamp_range must be"),
    (spec_with(clamp_range=[0, 1, 2]), "clamp_range must be"),
    (spec_with(clamp_range=[-50, 100]),
     r"clamp_range must be .* with 0 <= low < high, got \[-50, 100\]"),
    (spec_with(clamp_range={"low": 0}), "clamp_range must be two finite numbers"),
    (spec_with(A={"distribution": "poisson"}), "unknown distribution 'poisson'"),
    (spec_with(A={"sample_count": 0}), "sample_count must be >= 1"),
    # checked before anything is drawn, so neither count is ever allocated
    (spec_with(A={"sample_count": 10**30}), "sample_count must be at most 10000000"),
    (spec_with(B={"sample_count": 10**7 + 1}), "sample_count must be at most 10000000"),
    (spec_with(C={"parameters": {}}), "constant needs a non-negative 'value'"),
    (spec_with(C={"parameters": {"value": -1}}), "constant needs a non-negative 'value'"),
    (spec_with(A={"parameters": {"mean": 50}}), "normal needs 'mean' and 'stddev'"),
    (spec_with(A={"parameters": {"mean": 50, "stddev": -1}}), "stddev must be >= 0"),
    (spec_with(B={"parameters": {"means": [], "stddevs": [1], "weights": [1]}}),
     "mixture needs non-empty list 'means'"),
    (spec_with(B={"parameters": {"means": [1], "stddevs": 1, "weights": [1]}}),
     "mixture needs non-empty list 'stddevs'"),
    (spec_with(B={"parameters": {"means": [1, 2], "stddevs": [1], "weights": [1]}}),
     "mixture parameter lists must have equal length; got 2 'means', 1 'stddevs' and 1 'weights'"),
    (spec_with(B={"parameters": {"means": [1, 2], "stddevs": [1, -1], "weights": [0.5, 0.5]}}),
     "stddevs must be >= 0"),
    (spec_with(B={"parameters": {"means": [1, 2], "stddevs": [1, 1], "weights": [1.5, -0.5]}}),
     "non-negative and sum to 1"),
    ({"name": "x", "seed": 1}, "^scenario spec: missing field 'groups'$"),
    (spec_with(groups=[{"label": "A"}]),
     r"^scenario spec: missing field 'groups\[0\]\.distribution'$"),
    (spec_with(seed="one"), "seed must be a non-negative integer, got 'one'"),
    (spec_with(A={"sample_count": None}), "sample_count must be an integer, got None"),
    (spec_with(A={"parameters": {"mean": 50, "stddev": "x"}}),
     "parameter 'stddev' must be a finite number, got 'x'"),
    (spec_with(clamp_range=[0, "100"]), "clamp_range must be two finite numbers"),
    (spec_with(A={"parameters": {"mean": 50, "stddev": math.nan}}),
     "parameter 'stddev' must be a finite number, got nan"),
    (spec_with(A={"parameters": {"mean": math.inf, "stddev": 2}}),
     "parameter 'mean' must be a finite number, got inf"),
    (spec_with(quantize="false"), "quantize must be true or false"),
    (spec_with(A={"sample_count": 2.9}), "sample_count must be an integer"),
    (spec_with(A={"parameters": {"mean": 10**400, "stddev": 2}}),
     "parameter 'mean' must be a finite number, got 1000"),
    # each weight is a finite number, but their sum is beyond the float range
    (spec_with(B={"parameters": {"means": [1, 2], "stddevs": [1, 1], "weights": [10**308] * 2}}),
     "non-negative and sum to 1"),
]

#: JSON values of every type, nested a little: what a spec file may hold in any field.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=3) | st.sampled_from(["A", "B", *DISTRIBUTIONS]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=5,
)

#: The path of each field of valid_spec_doc(), with the words one of which
#: the message refusing a value in that field holds. A wrong distribution or
#: parameter object is refused by naming the parameters the group lacks.
SPEC_FIELDS = {
    ("name",): ("name",),
    ("seed",): ("seed",),
    ("groups",): ("groups",),
    ("clamp_range",): ("clamp_range",),
    ("quantize",): ("quantize",),
    ("groups", 0, "label"): ("label",),
    ("groups", 0, "distribution"): ("distribution", "needs"),
    ("groups", 0, "parameters"): ("parameters", "needs"),
    ("groups", 0, "sample_count"): ("sample_count",),
    ("groups", 0, "parameters", "mean"): ("'mean'",),
    ("groups", 0, "parameters", "stddev"): ("stddev",),
    ("groups", 1, "parameters", "means"): ("'means'",),
    ("groups", 1, "parameters", "stddevs"): ("stddevs",),
    ("groups", 1, "parameters", "weights"): ("weights",),
    ("groups", 2, "parameters", "value"): ("'value'",),
}


class TestSpecFromDict:
    def test_valid_document(self):
        spec = ScenarioSpec.from_dict(valid_spec_doc())
        assert [g.label for g in spec.groups] == ["A", "B", "C"]

    @pytest.mark.parametrize("doc, match", INVALID_SPECS, ids=[m for _, m in INVALID_SPECS])
    def test_invalid_document(self, doc, match):
        with pytest.raises(ConfigError, match=match):
            ScenarioSpec.from_dict(doc)

    def test_total_sample_count_is_bounded(self):
        # every group is within its own bound; the sum is checked before
        # anything is drawn, so neither spec allocates a sample
        group = {"distribution": "constant", "parameters": {"value": 1}, "sample_count": 10**7}
        doc = {"name": "big", "seed": 1, "groups": [{**group, "label": f"g{i}"} for i in range(5)]}
        assert sum(g.sample_count for g in ScenarioSpec.from_dict(doc).groups) == 5 * 10**7
        doc["groups"].append({**group, "label": "g5", "sample_count": 1})
        with pytest.raises(
            ConfigError, match="sample_count sums to 50000001 over its groups; at most 50000000 in all"
        ):
            ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("change, match", [
        (lambda s: setattr(s, "seed", -1), "seed must be a non-negative integer"),
        (lambda s: setattr(s.groups[0], "sample_count", True), "sample_count must be an integer"),
        (lambda s: s.groups[1].parameters.update(stddev=False), "parameter 'stddev'"),
    ])
    def test_generate_checks_a_hand_built_spec(self, change, match):
        spec = normal_spec()
        change(spec)
        with pytest.raises(ConfigError, match=match):
            generate(spec)

    @given(st.sampled_from(list(SPEC_FIELDS)), json_values)
    @settings(max_examples=600, deadline=None)
    def test_any_json_value_in_any_field(self, tmp_path_factory, field, value):
        """The spec is accepted or refused with a ConfigError naming the
        field, alike from the document and from its JSON file."""
        doc = valid_spec_doc()
        *parents, key = field
        target = doc
        for step in parents:
            target = target[step]
        target[key] = value
        path = tmp_path_factory.mktemp("spec") / "spec.json"
        path.write_text(json.dumps(doc))
        outcomes = []
        for load in (lambda: ScenarioSpec.from_dict(doc), lambda: ScenarioSpec.from_json_file(path)):
            try:
                load()
            except ConfigError as exc:
                assert any(word in str(exc) for word in SPEC_FIELDS[field]), str(exc)
                outcomes.append(str(exc))
            else:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]

    def test_duplicate_key_cites_its_json_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"name": "x", "seed": 1, "groups": [{"label": "A", "label": "B"}]}')
        with pytest.raises(ConfigError, match=r"spec\.json: groups\[0\]: duplicate key 'label'$"):
            ScenarioSpec.from_json_file(path)

    @pytest.mark.parametrize("text, match", [
        ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply to read"),
        ('{"name": "x", "seed": %s}' % ("1" * 5000),
         r"spec\.json: seed: invalid JSON: integer of over 4300 digits$"),
    ], ids=["deep", "long-integer"])
    def test_json_the_reader_cannot_hold(self, tmp_path, text, match):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            ScenarioSpec.from_json_file(path)

    def test_file_that_is_not_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("name: x\nseed: 1\n")
        with pytest.raises(ConfigError, match=r"spec\.json: invalid JSON"):
            ScenarioSpec.from_json_file(path)


#: Names and labels a CSV dataset can hold.
csv_labels = st.text(
    st.characters(blacklist_characters='"\r\n', blacklist_categories=("Cs",)),
    min_size=1, max_size=4,
)


@st.composite
def small_specs(draw):
    """A valid spec document of two to four small groups."""
    groups = []
    for label in draw(st.lists(csv_labels, min_size=2, max_size=4, unique=True)):
        distribution = draw(st.sampled_from(DISTRIBUTIONS))
        if distribution == "normal":
            parameters = {"mean": draw(st.floats(-50, 150)), "stddev": draw(st.floats(0, 30))}
        elif distribution == "constant":
            parameters = {"value": draw(st.floats(0, 150))}
        else:
            k = draw(st.integers(1, 3))
            shares = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
            parameters = {
                "means": draw(st.lists(st.floats(-50, 150), min_size=k, max_size=k)),
                "stddevs": draw(st.lists(st.floats(0, 30), min_size=k, max_size=k)),
                "weights": [n / sum(shares) for n in shares],
            }
        groups.append({"label": label, "distribution": distribution, "parameters": parameters,
                       "sample_count": draw(st.integers(1, 30))})
    low = draw(st.floats(0, 100))
    return {
        "name": draw(csv_labels),
        "seed": draw(st.integers(0, 2**64)),
        "clamp_range": [low, draw(st.floats(low, 200).filter(lambda high: high > low))],
        "quantize": draw(st.booleans()),
        "groups": groups,
    }


@given(small_specs())
@settings(max_examples=40, deadline=None)
def test_simulated_csv_and_json_give_the_same_report(tmp_path_factory, doc):
    work = tmp_path_factory.mktemp("sim")
    spec = work / "spec.json"
    spec.write_text(json.dumps(doc))
    reports = []
    for suffix in ("csv", "json"):
        data, report = work / f"sim.{suffix}", work / f"report-{suffix}.csv"
        assert main(["simulate", "--spec", str(spec), "--out", str(data)]) == 0
        assert main(["eval", "--input", str(data), "--format", "csv", "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


class TestStreamedSimulate:
    """``sqfr simulate`` draws, writes and summarizes one group at a time;
    its files hold the bytes ``save`` writes for ``generate``."""

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_files_equal_the_library_writers(self, tmp_path, monkeypatch, capsys, block):
        monkeypatch.setattr(scenarios, "_DRAW_BLOCK", block)
        # a mixture, then a normal group and a constant: the stream is handed
        # on from the copy the mixture's normals were drawn from
        doc = transform_doc({"mix2": 5 * block + 4, "normal": 2 * block + 1, "constant": block},
                            quantize=False)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        runs = [(["--scenario", name], spec) for name, spec in builtin_scenarios().items()]
        runs.append((["--spec", str(spec_path)], ScenarioSpec.from_dict(doc)))
        oracle = GroupedScores(doc["name"], simulate_oracle(doc))
        for argv, spec in runs:
            grouped = generate(spec)
            for ext in ("csv", "json"):
                out, library = tmp_path / f"out.{ext}", tmp_path / f"lib.{ext}"
                assert main(["simulate", *argv, "--out", str(out)]) == 0
                save(grouped, library)
                assert out.read_bytes() == library.read_bytes(), (argv, ext)
        # the last files written are the mixture-first spec's
        for ext in ("csv", "json"):
            save(oracle, tmp_path / f"oracle.{ext}")
            assert (tmp_path / f"out.{ext}").read_bytes() == (tmp_path / f"oracle.{ext}").read_bytes()
        capsys.readouterr()


class TestBuiltinScenarios:
    def test_catalog_names(self):
        assert set(builtin_scenarios()) == {"q1", "q2", "q3", "q5", "all-equal"}

    def test_q3_lwm_gap_exceeds_five_points(self):
        out = generate(builtin_scenarios()["q3"])
        lwm = lwm_aggregate(out).values
        means = mean_aggregate(out).values
        assert abs(lwm["A"] - lwm["B"]) > 5
        assert abs(means["A"] - means["B"]) < 2  # means barely differ; only LWM separates

    def test_q5_pinned_measures(self):
        out = generate(builtin_scenarios()["q5"])
        by_measure = {s.measure: s.value for s in evaluate_component(out)}
        assert by_measure["mdg_sqfr"] == pytest.approx(0.38324137931034474, rel=1e-12)  # pinned
        gc_based = [v for k, v in by_measure.items() if k != "mdg_sqfr"]
        assert by_measure["mdg_sqfr"] < 0.5 < min(gc_based)

    def test_export_reload_reproduces_aggregates(self, tmp_path):
        out = generate(builtin_scenarios()["q1"])
        save(out, tmp_path / "q1.csv")
        back = load_csv(tmp_path / "q1.csv")
        reloaded = mean_aggregate(back.components["q1"]).values
        original = mean_aggregate(out).values
        assert reloaded == original
        for label, target in zip("ABC", (81.3, 85.3, 86.1)):
            assert reloaded[label] == pytest.approx(target, abs=0.5)


class TestFixtures:
    def test_catalog_covers_all_published_tables(self):
        names = {f.name for f in builtin_fixtures()}
        assert {"q1-mean", "q2-median", "q3-lwm", "q5-mean", "five-all-equal"} <= names
        assert len(names) == 20

    @pytest.mark.parametrize(
        "fixture,measure",
        [
            pytest.param(
                f,
                measure,
                id=f"{f.name}-{measure}",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="from the published rounded aggregates {75.4, 81.4} the cubed "
                    "rate computes to 0.889541, 4.1e-5 outside the stated +/-0.0005 "
                    "radius of the published 0.889 (which was cubed from unrounded "
                    "aggregates); kept as published",
                )
                if f.name == "q3-lwm" and measure == "lwm_gc_csqfr"
                else (),
            )
            for f in builtin_fixtures()
            for measure in f.expected
        ],
    )
    def test_fixture_reproduces_published_value(self, fixture, measure):
        computed = fixture.evaluate()[measure]
        assert computed == pytest.approx(fixture.expected[measure], abs=fixture.tolerance)

    def test_expected_values_in_range(self):
        for f in builtin_fixtures():
            for value in f.expected.values():
                assert 0.0 <= value <= 1.0

    def test_sqfr_examples(self):
        by_name = {f.name: f for f in builtin_fixtures()}
        assert by_name["q2-mean"].evaluate()["mean_gc_sqfr"] == pytest.approx(0.95, abs=0.005)
        two_strong = by_name["five-two-strong-bias"].evaluate()
        assert two_strong["mean_gc_sqfr"] == pytest.approx(0.72, abs=0.005)
        assert two_strong["mean_gc_csqfr"] == pytest.approx(0.38, abs=0.005)
        different = by_name["five-all-different"].evaluate()
        assert different["mean_gc_sqfr"] == pytest.approx(0.61, abs=0.005)
        assert different["mean_gc_csqfr"] == pytest.approx(0.22, abs=0.005)
