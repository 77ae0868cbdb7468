import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screwchain import se3
from screwchain.model import (
    DEFAULT_GRAVITY, BodyModel, ChainModel, JointModel, ModelError, binet_inertia,
    inertia_readout, load_model, parse_model, screw_from_axis, serialize_model,
    spatial_inertia_body,
)
from screwchain.se3 import Pose, adjoint, screw
from screwchain.samples import SAMPLE_MODELS, sample_model_path

from conftest import (
    inertia_readout_oracle, model_build_oracle, rand_inertia, rand_rotation, random_chain,
)


# ------------------------------------------------------------ inertia_readout

def test_inertia_readout_matches_entry_by_entry_oracle(rng):
    # the stacked readout against the 16 entries built one by one, bit for
    # bit (the signs of zeros too), at the default, zero and random gravity
    for g in [DEFAULT_GRAVITY, (0.0, 0.0, 0.0), *rng.normal(size=(20, 3)) * 10.0]:
        got, want = inertia_readout(g), inertia_readout_oracle(g)
        assert got.shape == want.shape == (16, 42)
        assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------ screw_from_axis

def test_screw_from_axis_z_through_origin():
    s = screw_from_axis([0, 0, 1], [0, 0, 0])
    assert np.array_equal(s, screw([0, 0, 1], [0, 0, 0]))


def test_screw_from_axis_moment_sign():
    # axis z through the point (1,0,0): moment y x e = (1,0,0)x(0,0,1)
    s = screw_from_axis([0, 0, 1], [1, 0, 0])
    assert np.allclose(s, screw([0, 0, 1], [0, -1, 0]), atol=0.0)
    assert np.allclose(s[3:], np.cross([1, 0, 0], [0, 0, 1]), atol=0.0)


def test_screw_from_axis_prismatic_sentinel():
    s = screw_from_axis([1, 0, 0], [5, 5, 5], pitch=np.inf)
    assert np.array_equal(s, screw([0, 0, 0], [1, 0, 0]))


def test_screw_from_axis_rejects_non_unit():
    with pytest.raises(ModelError):
        screw_from_axis([0, 0, 2], [0, 0, 0])


def test_screw_from_axis_moment_is_np_cross_bit_for_bit(rng):
    for _ in range(50):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        y, pitch = rng.normal(size=3) * 10.0, rng.uniform(-1.0, 1.0)
        assert screw_from_axis(e, y, pitch).tobytes() == \
            screw(e, np.cross(y, e) + pitch * e).tobytes()


def test_computed_reference_poses_equal_validated_ones(rng):
    # the identity and the relative reference poses that the loader builds
    # unvalidated: read-only, and bit for bit what Pose(...) would give
    ident = Pose.identity()
    assert np.array_equal(ident.rot, np.eye(3)) and np.array_equal(ident.trans, np.zeros(3))
    models = [load_model(sample_model_path(name)) for name in SAMPLE_MODELS]
    models += [random_chain(rng, 6, tree=True) for _ in range(5)]
    for model in models:
        for i, p in enumerate(model.parent):
            rel, ref = model.rel_ref_pose(i), model.bodies[i].ref_pose
            want = ref if p < 0 else model.bodies[p].ref_pose.inverse() @ ref
            assert rel.rot.tobytes() == want.rot.tobytes()
            assert rel.trans.tobytes() == want.trans.tobytes()
    for pose in [ident] + [models[-1].rel_ref_pose(i) for i in range(6)]:
        assert not pose.rot.flags.writeable and not pose.trans.flags.writeable


def test_revolute_screw_fixes_its_axis_point(rng):
    # exp of the joint screw leaves points on the axis fixed
    for _ in range(20):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        y = rng.normal(size=3)
        s = screw_from_axis(e, y)
        p = se3.exp_se3(s * rng.uniform(-2, 2))
        assert np.allclose(p.apply(y), y, atol=1e-12)


@pytest.mark.parametrize("frame", ["spatial", "body"])
def test_one_joint_serves_models_with_different_reference_poses(rng, frame):
    # a model resolves copies of its joints, so the joint it was given
    # still carries only the screw it was built with
    def joint():
        return JointModel("revolute", axis=[0.0, 0.6, 0.8], point=[0.1, -0.2, 0.3],
                          frame=frame)

    def one_body(ref):
        return [BodyModel(1.5, [0.1, 0.0, 0.0], np.diag([1.0, 2.0, 2.5]), ref)]

    shared = joint()
    ChainModel(one_body(Pose.identity()), [shared], [-1])
    ref = Pose(rand_rotation(rng), rng.normal(size=3))
    second = ChainModel(one_body(ref), [shared], [-1])
    fresh = ChainModel(one_body(ref), [joint()], [-1])
    for got, want in zip(second.tables, fresh.tables):
        assert np.array_equal(got, want)
    assert np.array_equal(second.joints[0].screw_spatial, fresh.joints[0].screw_spatial)
    assert np.array_equal(second.joints[0].screw_body, fresh.joints[0].screw_body)


@pytest.mark.parametrize("frame", ["spatial", "body"])
def test_model_keeps_copies_of_the_callers_joint_arrays(frame):
    # the caller's axis, point and screw arrays stay writable after the
    # build, and writing into them leaves the model's tables and its
    # serialized form as built
    axis, point = np.array([0.0, 0.6, 0.8]), np.array([0.1, -0.2, 0.3])
    s = screw_from_axis(axis, point)
    joints = [JointModel("revolute", axis=axis, point=point, frame=frame),
              JointModel("revolute", **{f"screw_{frame}": s})]
    bodies = [BodyModel(1.5, [0.1, 0.0, 0.0], np.diag([1.0, 2.0, 2.5])) for _ in range(2)]
    model = ChainModel(bodies, joints, [-1, 0])
    text, tables = serialize_model(model), [np.copy(t) for t in model.tables]
    for arr in (axis, point, s):
        assert arr.flags.writeable
        arr[:] = 9.0
    assert serialize_model(model) == text
    for got, want in zip(model.tables, tables):
        assert np.array_equal(got, want)


def test_body_model_keeps_copies_of_the_callers_arrays():
    # a write into the caller's COM offset or inertia after the build
    # leaves the body, a model built from it later and its serialized form
    # as given
    com, inertia = np.array([0.1, 0.0, 0.0]), np.diag([1.0, 2.0, 2.5])
    body = BodyModel(1.5, com, inertia)
    com[0], inertia[0, 0] = 7.0, -1.0
    assert com.flags.writeable and inertia.flags.writeable
    assert body.com_offset[0] == 0.1 and body.inertia_com[0, 0] == 1.0
    model = ChainModel([body], [JointModel("revolute", axis=[0, 0, 1])], [-1])
    assert np.linalg.eigvalsh(model.tables.inertia[0]).min() > 0.0
    doc = json.loads(serialize_model(model))["bodies"][0]
    assert doc["com"][0] == 0.1 and doc["inertia_com"][0][0] == 1.0


def test_body_screw_of_a_spatial_joint_is_the_solve_through_its_pose(rng):
    # the body screw of a joint given in spatial form is Ad(C)^-1 s, read
    # in closed form, within a few roundoffs (1e-14 of its largest entry)
    # of solving Ad(C) x = s
    for _ in range(20):
        ref = Pose(rand_rotation(rng), rng.normal(size=3))
        axis = rng.normal(size=3)
        joint = JointModel("helical", axis=axis / np.linalg.norm(axis),
                           point=rng.normal(size=3), pitch=0.2)
        model = ChainModel([BodyModel(1.0, [0, 0, 0], np.eye(3), ref)], [joint], [-1])
        want = np.linalg.solve(adjoint(ref), model.joints[0].screw_spatial)
        assert np.abs(model.joints[0].screw_body - want).max() <= 1e-14 * np.abs(want).max()


# ------------------------------------------------------------ spatial inertia

def test_spatial_inertia_zero_offset_blockdiag(rng):
    theta = rand_inertia(rng)
    body = BodyModel(2.0, [0, 0, 0], theta)
    m = spatial_inertia_body(body).matrix
    assert np.allclose(m[:3, :3], theta, atol=0.0)
    assert np.allclose(m[3:, 3:], 2.0 * np.eye(3), atol=0.0)
    assert np.allclose(m[:3, 3:], 0.0, atol=0.0)


def test_spatial_inertia_point_mass_parallel_axis():
    d = 0.7
    m = 1.4
    body = BodyModel(m, [d, 0, 0], np.eye(3) * 1e-9)
    out = spatial_inertia_body(body).matrix
    assert np.allclose(out[:3, :3], m * d * d * np.diag([0, 1, 1]), atol=1e-8)


def test_spatial_inertia_congruence_oracle(rng):
    # equals the COM-frame inertia transported by the adjoint congruence
    worst = 0.0
    for _ in range(50):
        body = BodyModel(rng.uniform(0.5, 3), rng.normal(size=3) * 0.5,
                         rand_inertia(rng))
        mc = np.zeros((6, 6))
        mc[:3, :3] = body.inertia_com
        mc[3:, 3:] = body.mass * np.eye(3)
        ad_inv = adjoint(Pose(np.eye(3), body.com_offset).inverse())
        expect = ad_inv.T @ mc @ ad_inv
        worst = max(worst,
                    np.abs(spatial_inertia_body(body).matrix - expect).max())
    assert worst < 1e-12


def test_spatial_inertia_positive_definite(rng):
    for _ in range(30):
        body = BodyModel(rng.uniform(0.5, 3), rng.normal(size=3),
                         rand_inertia(rng))
        np.linalg.cholesky(spatial_inertia_body(body).matrix)


def test_body_model_validation():
    with pytest.raises(ModelError):
        BodyModel(-1.0, [0, 0, 0], np.eye(3))
    with pytest.raises(ModelError):
        BodyModel(1.0, [0, 0, 0], -np.eye(3))
    with pytest.raises(ModelError):
        # violates the triangle inequality on principal moments
        BodyModel(1.0, [0, 0, 0], np.diag([1.0, 1.0, 3.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_constructors_reject_non_finite_numbers(bad):
    # each names its field, before any arithmetic on the number could warn
    inertia = np.eye(3)
    inertia[1, 1] = bad
    with pytest.raises(ModelError, match=r"^body\.com_offset: must be finite$"):
        BodyModel(1.0, [0.0, bad, 0.0], np.eye(3))
    with pytest.raises(ModelError, match=r"^body\.inertia_com: must be finite$"):
        BodyModel(1.0, [0.0, 0.0, 0.0], inertia)
    with pytest.raises(ModelError, match=r"^joint: joint screw must be finite$"):
        JointModel("revolute", screw_spatial=[0.0, 0.0, 1.0, bad, 0.0, 0.0])
    body = BodyModel(1.0, [0.0, 0.0, 0.0], np.eye(3))
    joint = JointModel("revolute", axis=[0.0, 0.0, 1.0])
    with pytest.raises(ModelError, match=r"^gravity: must be finite$"):
        ChainModel([body], [joint], [-1], gravity=(bad, 0.0, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_body_model_rejects_an_inertia_that_overflows():
    # a finite COM offset or mass whose inertia overflows, named as the
    # model names its overflowing tables, with no numpy warning first
    for mass, com in ((1.0, [1e200, 0.0, 0.0]), (1e300, [1e5, 0.0, 0.0]),
                      (1.0, [1e154, 1e154, 0.0])):
        with pytest.raises(ModelError) as info:
            BodyModel(mass, com, np.eye(3))
        assert (info.value.path, info.value.message) == ("body", "inertia table overflows")
    with pytest.raises(ModelError, match=r"^bodies\[3\]: inertia table overflows$"):
        BodyModel(1.0, [1e200, 0.0, 0.0], np.eye(3), _path="bodies[3]")
    # principal moments whose sum overflows: the triangle check warns of
    # nothing, and the pseudo-inertia tr(Theta)/2 I - Theta + m d d^T, which
    # overflows where the inertia does not, is caught here, not by ChainModel
    for moment in (1e308, 6e307):
        with pytest.raises(ModelError) as info:
            BodyModel(1.0, [0.0, 0.0, 0.0], np.diag([moment] * 3))
        assert (info.value.path, info.value.message) == ("body", "inertia table overflows")
    # near overflow the inertia is formed to see, and a finite one is kept
    for mass, com in ((1.0, [1e151, 0.0, 0.0]), (1e-10, [1e153, 0.0, 0.0])):
        assert np.isfinite(spatial_inertia_body(BodyModel(mass, com, np.eye(3))).matrix).all()


def test_overflowing_relative_reference_pose_names_the_body():
    body = BodyModel(1.0, [0.0, 0.0, 0.0], np.eye(3),
                     Pose(np.eye(3), [1e308, 0.0, 0.0]))
    away = BodyModel(1.0, [0.0, 0.0, 0.0], np.eye(3),
                     Pose(np.eye(3), [-1e308, 0.0, 0.0]))
    joint = JointModel("revolute", axis=[0.0, 0.0, 1.0])
    with pytest.raises(ModelError, match=r"^bodies\[1\]\.ref_pose: "):
        ChainModel([body, away], [joint, joint], [-1, 0])


# -------------------------------------------------------------------- binet

def test_binet_diagonal_examples():
    assert np.allclose(binet_inertia(np.diag([2.0, 2.0, 2.0])), np.eye(3), atol=0.0)
    assert np.allclose(binet_inertia(np.diag([1.0, 2.0, 3.0])),
                       np.diag([2.0, 1.0, 0.0]), atol=0.0)


def binet_inertia_inverse(binet):
    """The inertia tensor of a Binet tensor: tr(B) I - B."""
    return np.trace(binet) * np.eye(3) - binet


def test_binet_round_trips_with_its_inverse(rng):
    # tr(B) I - B undoes tr(T)/2 I - T in either order
    for _ in range(50):
        theta = rand_inertia(rng)
        assert np.allclose(binet_inertia_inverse(binet_inertia(theta)), theta,
                           atol=1e-13)
        assert np.allclose(binet_inertia(binet_inertia_inverse(theta)), theta,
                           atol=1e-13)


# ------------------------------------------------------------------ file I/O

MINIMAL = {
    "name": "mini",
    "gravity": [0.0, 0.0, -9.80665],
    "bodies": [
        {"parent": 0, "mass": 1.0, "com": [0.1, 0.0, 0.0],
         "inertia_com": [[0.02, 0.0, 0.0], [0.0, 0.02, 0.0], [0.0, 0.0, 0.03]],
         "joint": {"type": "revolute", "axis": [0.0, 0.0, 1.0],
                   "point": [0.0, 0.0, 0.0], "frame": "spatial"}}
    ],
}


def test_parse_minimal_model():
    model = parse_model(json.dumps(MINIMAL))
    assert model.n == 1
    assert model.joints[0].kind == "revolute"
    assert np.allclose(model.joints[0].screw_spatial, screw([0, 0, 1], [0, 0, 0]))


def test_parse_accepts_bytes():
    model = parse_model(json.dumps(MINIMAL).encode())
    assert model.n == 1


def test_parse_improper_rotation_diagnostic():
    doc = json.loads(json.dumps(MINIMAL))
    doc["bodies"][0]["ref_pose"] = {
        "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
        "translation": [0, 0, 0],
    }
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert "ref_pose.rotation: not a proper rotation" in str(err.value)


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d["bodies"][0].pop("mass"), "mass"),
    (lambda d: d["bodies"][0].__setitem__("mass", -2.0), "bodies[0].mass"),
    (lambda d: d["bodies"][0].__setitem__("parent", 5), "parent"),
    (lambda d: d["bodies"][0]["joint"].__setitem__("axis", [0, 0, 2]), "joint"),
    (lambda d: d["bodies"][0].__setitem__(
        "inertia_com", [[1, 0, 0], [0, 1, 0], [0, 0, 5]]), "inertia_com"),
    (lambda d: d["bodies"][0]["joint"].pop("axis"), "joint.axis"),
])
def test_parse_diagnostics_carry_field_paths(mutate, needle):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert needle in str(err.value)


def test_parse_never_panics_on_malformed_documents():
    corpus = [
        "", "null", "[]", "{}", '{"bodies": []}', '{"bodies": [{}]}',
        '{"bodies": 3}', '{"bodies": [{"parent": 0}]}', "{not json",
        '{"gravity": [1, 2], "bodies": []}',
        json.dumps({"bodies": [{"parent": 0, "mass": "x", "com": [0, 0, 0],
                                "inertia_com": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                "joint": {"type": "revolute", "axis": [0, 0, 1]}}]}),
        json.dumps({"bodies": [{"parent": 0, "mass": 1.0, "com": [0, 0, 0],
                                "inertia_com": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                "joint": {"type": "wobbly", "axis": [0, 0, 1]}}]}),
        json.dumps({"bodies": [{"parent": 0, "mass": 1.0, "com": [0, 0, 0],
                                "inertia_com": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                "joint": {"type": "helical", "axis": [0, 0, 1]}}]}),
    ]
    for text in corpus:
        with pytest.raises(ModelError):
            parse_model(text)


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


@pytest.mark.parametrize("path,field", [
    (("bodies", 0, "mass"), "bodies[0].mass"),
    (("bodies", 0, "com", 1), "bodies[0].com"),
    (("gravity", 2), "gravity"),
    (("bodies", 0, "joint", "axis", 0), "bodies[0].joint.axis"),
    (("bodies", 0, "joint", "point", 2), "bodies[0].joint.point"),
    (("bodies", 0, "joint", "pitch"), "bodies[0].joint.pitch"),
    (("bodies", 0, "ref_pose", "translation", 0), "bodies[0].ref_pose.translation"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_parse_rejects_non_finite_numbers_naming_the_field(path, field, value):
    doc = json.loads(json.dumps(MINIMAL))
    doc["bodies"][0]["joint"]["type"] = "helical"
    doc["bodies"][0]["joint"]["pitch"] = 0.1
    doc["bodies"][0]["ref_pose"] = {"rotation": np.eye(3).tolist(),
                                    "translation": [0.0, 0.5, 0.0]}
    parse_model(json.dumps(doc))
    _set(doc, path, value)
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert str(err.value).startswith(f"{field}: ")


@pytest.mark.parametrize("key,field", [("joint", "bodies[0].joint"),
                                       ("ref_pose", "bodies[0].ref_pose")])
@pytest.mark.parametrize("value", ["type", [1, 2, 3], 3.0, None])
def test_parse_rejects_joint_or_ref_pose_that_is_not_an_object(key, field, value):
    doc = json.loads(json.dumps(MINIMAL))
    doc["bodies"][0][key] = value
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert str(err.value) == f"{field}: must be an object"


def _paths(node, prefix=()):
    """Every path of keys and indices into a JSON document."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


FUZZ_BASES = [MINIMAL] + [json.loads(serialize_model(m)) for m in (
    load_model(sample_model_path("arm_6r")),
    random_chain(np.random.default_rng(7), 4, tree=True))]

FUZZ_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=4),
              st.floats(allow_nan=True, allow_infinity=True),
              st.integers(-10 ** 400, 10 ** 400),
              st.sampled_from([0.0, -1.0, 1e-300, 1e154, 1e200, 1e308, -1e308])),
    lambda leaf: st.one_of(st.lists(leaf, max_size=4),
                           st.dictionaries(st.text(max_size=6), leaf, max_size=3)),
    max_leaves=12)


def _number_paths(doc):
    return [p for p in _paths(doc) if type(_get(doc, p)) in (int, float)]


@st.composite
def mutated_documents(draw):
    """A valid document with one to three edits: a value deleted, a value
    replaced by any JSON value, or a number replaced by a non-finite or
    huge one."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("delete", "replace", "number")))
        paths = list(_paths(doc))[1:] if edit != "number" else _number_paths(doc)
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        if edit == "delete":
            del _get(doc, path[:-1])[path[-1]]
        elif edit == "replace":
            _set(doc, path, draw(FUZZ_VALUES))
        else:
            _set(doc, path, draw(st.sampled_from(
                [float("nan"), float("inf"), -1e308, 1e154, 1e200, 1e308, 10 ** 400])))
    return json.dumps(doc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_parse_fuzz_gives_model_error_or_finite_tables(text):
    try:
        model = parse_model(text)
    except ModelError:
        return
    for name, arr in zip(model.tables._fields, model.tables):
        assert np.all(np.isfinite(arr)), name


def test_json_syntax_error_reports_line():
    with pytest.raises(ModelError) as err:
        parse_model('{\n  "bodies": [,]\n}')
    assert "line 2" in str(err.value)


def test_round_trip_bit_identical_on_bundled_models():
    for name in ("pendulum_1r", "planar_2r", "arm_6r"):
        model = load_model(sample_model_path(name))
        text = serialize_model(model)
        again = parse_model(text)
        assert serialize_model(again) == text
        for i in range(model.n):
            assert np.array_equal(model.bodies[i].com_offset,
                                  again.bodies[i].com_offset)
            assert np.array_equal(model.bodies[i].inertia_com,
                                  again.bodies[i].inertia_com)
            assert model.bodies[i].mass == again.bodies[i].mass
            assert np.array_equal(model.joints[i].screw_spatial,
                                  again.joints[i].screw_spatial)


def test_round_trip_of_programmatic_model(rng):
    model = random_chain(rng, 5, tree=True)
    again = parse_model(serialize_model(model))
    for i in range(model.n):
        assert np.allclose(model.joints[i].screw_spatial,
                           again.joints[i].screw_spatial, atol=1e-12)


# ----------------------------------------------------------------- ChainModel

def test_joint_screw_consistency_through_reference_pose(rng):
    # spatial and body screws of every joint agree through Ad of the
    # reference pose after load
    for trial in range(10):
        model = random_chain(rng, int(rng.integers(1, 7)), tree=(trial % 2 == 0))
        for i in range(model.n):
            ad = adjoint(model.bodies[i].ref_pose)
            assert np.allclose(model.joints[i].screw_spatial,
                               ad @ model.joints[i].screw_body, atol=1e-12)


def test_joint_cross_check_rejects_inconsistent_pair(rng):
    ref = Pose(rand_rotation(rng), rng.normal(size=3))
    y = screw_from_axis([0, 0, 1], [0.5, 0, 0])
    with pytest.raises(ModelError):
        ChainModel(
            [BodyModel(1.0, [0, 0, 0], np.eye(3) * 0.1, ref)],
            [JointModel("revolute", screw_spatial=y, screw_body=y)],
            [-1])


def test_parent_order_enforced():
    bodies = [BodyModel(1.0, [0, 0, 0], np.eye(3) * 0.1) for _ in range(2)]
    joints = [JointModel("revolute", axis=[0, 0, 1], point=[0, 0, 0])
              for _ in range(2)]
    with pytest.raises(ModelError):
        ChainModel(bodies, joints, [1, -1])


def test_chain_without_bodies_rejected():
    # the error parse_model gives a file without bodies
    with pytest.raises(ModelError) as info:
        ChainModel([], [], [])
    assert (info.value.path, info.value.message) == ("bodies", "must be a non-empty list")


def test_paths_and_children(rng):
    model = random_chain(rng, 6, tree=True)
    for i in range(model.n):
        path = model.path(i)
        assert path[-1] == i
        assert list(path) == sorted(path)
        for a, b in zip(path, path[1:]):
            assert model.parent[b] == a
    kids = [c for i in range(model.n) for c in model.children(i)]
    roots = [i for i in range(model.n) if model.parent[i] < 0]
    assert sorted(kids + roots) == list(range(model.n))


# ------------------------------------------------------- stacked model build

def _unresolved(joints):
    """Fresh joints built as the given ones were, each carrying only the
    screw its frame tag names."""
    return [JointModel(j.kind, axis=j.axis, point=j.point, pitch=j.pitch, frame=j.frame)
            for j in joints]


@pytest.mark.parametrize("seed", range(24))
def test_stacked_model_build_matches_per_body_formulas(seed):
    # trees with all three joint kinds, joints given in spatial and body
    # frames and non-identity reference poses: every table, resolved screw
    # and relative reference pose bit for bit what the per-body formulas give
    rng = np.random.default_rng(seed)
    model = random_chain(rng, int(rng.integers(1, 10)), tree=True,
                         gravity=rng.normal(size=3) * 10.0)
    joints = _unresolved(model.joints)
    assert {j.frame for j in joints} <= {"spatial", "body"}
    spatial, body, rel_ref, tables = model_build_oracle(model.bodies, joints, model.parent,
                                                        model.gravity)
    built = ChainModel(model.bodies, joints, model.parent, model.gravity)
    for name, arr in zip(built.tables._fields, built.tables):
        assert arr.dtype == tables[name].dtype and arr.tobytes() == tables[name].tobytes(), name
    for i, joint in enumerate(built.joints):
        assert joint.screw_spatial.tobytes() == spatial[i].tobytes()
        assert joint.screw_body.tobytes() == body[i].tobytes()
        assert built.rel_ref_pose(i).rot.tobytes() == rel_ref[i].rot.tobytes()
        assert built.rel_ref_pose(i).trans.tobytes() == rel_ref[i].trans.tobytes()
        assert spatial_inertia_body(built.bodies[i]).matrix.tobytes() == \
            tables["inertia"][i].tobytes()


def test_stacked_model_build_covers_the_joint_kinds_and_frames():
    # the seeds of the test above draw every joint kind in both frames
    seen = set()
    for seed in range(24):
        rng = np.random.default_rng(seed)
        model = random_chain(rng, int(rng.integers(1, 10)), tree=True,
                             gravity=rng.normal(size=3) * 10.0)
        seen |= {(j.kind, j.frame) for j in model.joints}
    assert seen == {(k, f) for k in ("revolute", "prismatic", "helical")
                    for f in ("spatial", "body")}


def test_joints_given_in_both_frames_keep_their_spatial_screw(rng):
    # a joint given both screws is cross-checked and keeps them; the
    # tables are those of the same joints given one screw each
    model = random_chain(rng, 6, tree=True)
    both = [JointModel(j.kind, screw_spatial=j.screw_spatial, screw_body=j.screw_body)
            for j in model.joints]
    again = ChainModel(model.bodies, both, model.parent, model.gravity)
    for got, want in zip(again.tables, model.tables):
        assert np.array_equal(got, want)
    for joint, given in zip(again.joints, both):
        assert joint.screw_spatial.tobytes() == given.screw_spatial.tobytes()
