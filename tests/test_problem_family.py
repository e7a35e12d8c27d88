"""Problem-family descriptors: typed wire validation, user families, ``restrict``.

Each family's :class:`~repro.problems.family.ProblemFamily` is the one place
its instances are taken apart and put together.  These tests pin what that
buys: malformed wire bodies are typed 400s naming the field, a user family
declared with one descriptor works over the wire, in session edits and in
ingestion, and ``restrict`` works on every family.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.api.registry import register_problem, unregister_problem
from repro.api.session import extend_problem
from repro.core.exceptions import RegistryError
from repro.problems import (
    ConvexQuadraticProgram,
    LinearProgram,
    LinearSVM,
    MinimumEnclosingBall,
    ProblemFamily,
)
from repro.server import (
    ReproServer,
    RequestValidationError,
    ServiceClient,
    decode_problem,
    encode_problem,
)

from tests.test_api_facade import FAST, PROBLEMS

LP_BODY = {"family": "lp", "c": [1, 0], "a": [[1, 0], [0, 1]], "b": [1, 1]}


def _decode_error(**fields) -> RequestValidationError:
    with pytest.raises(RequestValidationError) as excinfo:
        decode_problem({**LP_BODY, **fields})
    return excinfo.value


# ---------------------------------------------------------------------- #
# Wire validation: every malformed body is a RequestValidationError
# ---------------------------------------------------------------------- #


def test_non_numeric_tolerance_names_the_field():
    assert _decode_error(tolerance="abc").field == "problem.tolerance"


def test_string_box_bound_names_the_field():
    assert _decode_error(box_bound="x").field == "problem.box_bound"


def test_null_tolerance_names_the_field():
    assert _decode_error(tolerance=None).field == "problem.tolerance"


def test_bool_tolerance_is_not_a_number():
    assert _decode_error(tolerance=True).field == "problem.tolerance"


def test_integer_lexicographic_is_not_a_boolean():
    assert _decode_error(lexicographic=1).field == "problem.lexicographic"


def test_numeric_solver_is_not_a_string():
    assert _decode_error(solver=3).field == "problem.solver"


def test_unknown_key_is_rejected_by_name():
    error = _decode_error(extra=1)
    assert error.field == "problem.extra"
    assert "'extra'" in str(error)


def test_nan_coefficient_is_rejected_and_infinity_kept():
    inf = decode_problem({**LP_BODY, "b": [1, float("inf")]})
    assert inf.b[1] == float("inf")
    error = _decode_error(a=[[1, 0], [float("nan"), 1]])
    assert error.field == "problem.a"
    assert "NaN" in str(error)


def test_missing_array_reads_as_missing():
    body = dict(LP_BODY)
    del body["b"]
    with pytest.raises(RequestValidationError) as excinfo:
        decode_problem(body)
    assert excinfo.value.field == "problem.b"
    assert str(excinfo.value) == "problem family 'lp' requires field 'b'"


def test_alias_is_accepted_as_the_family_tag():
    problem = decode_problem({**LP_BODY, "family": "linear_program"})
    assert type(problem) is LinearProgram
    assert encode_problem(problem)["family"] == "lp"


def test_live_server_answers_a_malformed_body_with_the_field():
    with ReproServer(port=0, model="sequential", max_workers=1, **FAST) as server:
        with pytest.raises(RequestValidationError) as excinfo:
            ServiceClient(server.url).submit({**LP_BODY, "tolerance": "abc"})
    assert excinfo.value.field == "problem.tolerance"


# ---------------------------------------------------------------------- #
# A user family: one subclass plus one descriptor
# ---------------------------------------------------------------------- #


class LabelledBall(MinimumEnclosingBall):
    """An MEB that travels under its own wire name."""


LabelledBall.family = ProblemFamily(
    name="labelled_ball",
    aliases=("labelled_enclosing_ball",),
    cls=LabelledBall,
    constraint_arrays=(("points", 2),),
    options=(("tolerance", float),),
)


@pytest.fixture
def labelled_ball():
    register_problem("labelled_ball", LabelledBall, description="test family")
    rng = np.random.default_rng(7)
    yield LabelledBall(rng.normal(size=(400, 2)))
    unregister_problem("labelled_ball")


def test_user_family_round_trips_the_wire(labelled_ball):
    payload = encode_problem(labelled_ball)
    assert payload["family"] == "labelled_ball"
    decoded = decode_problem(json.loads(json.dumps(payload)))
    assert type(decoded) is LabelledBall
    assert encode_problem(decoded) == payload

    class PlainSubclass(LinearProgram):
        pass

    lp = PROBLEMS["lp"]()
    plain = PlainSubclass(c=lp.c, a=lp.a, b=lp.b)
    assert encode_problem(plain) == encode_problem(lp)


def test_user_family_edits_ingests_and_restricts(labelled_ball):
    with repro.session(model="sequential", **FAST) as sess:
        sess.solve(labelled_ball)
        sess.resolve_with(added=np.array([[9.0, 0.0]]), removed=[0, 1])
        assert type(sess.problem) is LabelledBall
        assert sess.problem.num_constraints == labelled_ball.num_constraints - 1
        handle = sess.ingest(family="labelled_enclosing_ball")
        handle.feed(labelled_ball.points[:100]).feed(labelled_ball.points[100:])
        built = handle.finalize(solve=False)
    assert type(built) is LabelledBall
    assert encode_problem(built) == encode_problem(labelled_ball)
    restricted = labelled_ball.restrict([3, 1])
    assert type(restricted) is LabelledBall
    np.testing.assert_array_equal(restricted.points, labelled_ball.points[[3, 1]])


def test_a_clashing_wire_name_is_refused():
    class Impostor(MinimumEnclosingBall):
        pass

    Impostor.family = ProblemFamily(
        name="lp", cls=Impostor, constraint_arrays=(("points", 2),)
    )
    with pytest.raises(RegistryError, match="lp"):
        register_problem("impostor", Impostor)


# ---------------------------------------------------------------------- #
# restrict and the chunk forms on the built-in families
# ---------------------------------------------------------------------- #


#: Each built-in family's instance over ``rows``, built from sliced arrays.
SLICED = {
    "lp": lambda p, rows: LinearProgram(
        c=p.c,
        a=p.a[rows],
        b=p.b[rows],
        box_bound=p.box_bound,
        solver=p.solver,
        lexicographic=p.lexicographic,
        tolerance=p.tolerance,
    ),
    "meb": lambda p, rows: MinimumEnclosingBall(p.points[rows], tolerance=p.tolerance),
    "svm": lambda p, rows: LinearSVM(
        p.points[rows], p.labels[rows], tolerance=p.tolerance
    ),
    "qp": lambda p, rows: ConvexQuadraticProgram(
        p.q_matrix, p.q_vector, p.g_matrix[rows], p.h_vector[rows], tolerance=p.tolerance
    ),
}


def test_restrict_matches_the_sliced_instance_on_every_family():
    rows = [5, 0, 17, 3]
    for name, make in sorted(PROBLEMS.items()):
        problem = make()
        expected = json.dumps(encode_problem(SLICED[name](problem, rows)))
        assert json.dumps(encode_problem(problem.restrict(rows))) == expected, name


def test_svm_accepts_a_merged_points_and_labels_block():
    svm = PROBLEMS["svm"]()
    points, labels = svm.points[:5] * 3.0, svm.labels[:5]
    paired, _ = extend_problem(svm, added=(points, labels))
    merged, _ = extend_problem(svm, added=np.column_stack([points, labels]))
    assert encode_problem(merged) == encode_problem(paired)
