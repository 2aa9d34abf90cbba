"""Property test: `compucap capacity --json` on extreme and near-miss
models reports the root the 60-digit oracle brackets, or refuses with
one error line; it never raises."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from compucap import ParameterBinding, bind, cli, parse_model
from test_solver import _decimal_root

counts = st.builds("{}*2^{}".format, st.integers(1, 9), st.integers(0, 5000))
times = st.builds("{}e{}".format, st.integers(1, 9), st.integers(-307, 307))
terms = st.builds("1*2^{}".format, st.integers(0, 5000))
values = st.builds("{}e{}".format, st.integers(1, 9), st.integers(-10, 10))
# spellings one slip from a number the parser takes, or from a valid
# value; none it takes lifts a total past 4,300 digits
near_misses = st.sampled_from([
    "0", "-1", "2.5", "1e3", "2 * 2^10", "2*2^", "*2^3", "2*3^4", "2**10", "+4", "0x10",
    "1_000", " 7 ", "", "1*2^1000001", "-1e-3", "1e-400", "1e400", "1e4301", "1/0", "1/3",
    " 1e3", "1E+3", ".5", "1.", "1_0", "inf", "nan", "1e", "e5", "١", "p",
    0, -3, 5.0, 0.5, 1e-320, True, None, [], {}, {"base": 1, "coeffs": {"zz": 1}},
    {"base": "-1"}, {"base": 1, "coeffs": {"p": "-1"}}, {"coeffs": {"p": 1}},
])


@st.composite
def spelled(draw, strategy):
    """A value of `strategy`, or one time in 30 a near miss."""
    return draw(near_misses) if draw(st.integers(0, 29)) == 0 else draw(strategy)


@st.composite
def cases(draw):
    """(model JSON text, --param pairs): 1-4 members, about 40% of them
    families, and a parameter `p` declared and given, missing or extra."""
    declared = draw(st.booleans())
    members = []
    for i in range(draw(st.integers(1, 4))):
        time = draw(spelled(times))
        if declared and draw(st.integers(0, 2)) == 0:
            time = {"base": time, "coeffs": {"p": draw(spelled(times))}}
        member = {"name": f"m{i}", "count": draw(spelled(counts)), "time": time}
        if draw(st.integers(0, 9)) < 4:
            member["family"] = {"step": draw(spelled(times)), "terms": draw(spelled(terms))}
        members.append(member)
    model = {"name": "f", "classes": members}
    if declared:
        model["parameters"] = ["p"]
    params = []
    p = draw(st.sampled_from(["given", "given", "missing", "extra"]) if declared else st.just(""))
    if p in ("given", "extra"):
        params.append(f"p={draw(spelled(values))}")
    if p == "extra" or draw(st.integers(0, 19)) == 0:
        params.append("q=1")
    return json.dumps(model), params


@settings(max_examples=100, deadline=None)
@given(cases())
def test_capacity_reports_the_oracle_root_or_one_error_line(case):
    text, params = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(text)
        argv = ["capacity", str(path), "--json"] + [f"--param={p}" for p in params]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(cli, "render_report", wraps=cli.render_report) as render:
            code = cli.main(argv)
    if code:
        assert code in (2, 3)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    assert err.getvalue() == ""
    # the report before rendering, which rounds floats to 15 digits
    y = render.call_args.args[0]["results"]["capacity_bits"]
    assert json.loads(out.getvalue())["results"]["capacity_bits"] == float(format(y, ".15g"))
    iset = bind(parse_model(text), ParameterBinding.from_strings(params))
    assert abs(y - float(_decimal_root(iset))) <= max(1e-12, 4 * math.ulp(y))
