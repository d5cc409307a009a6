"""Fuzzing of the file readers: whatever the bytes, a reader returns or
raises an HnfError, never another exception."""

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hnf.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, load_csv, load_idx
from hnf.errors import HnfError
from hnf.matrixgen import _HEADER, MAGIC, load_weight
from hnf.solvers import load_output_map

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def returns_or_hnf_error(reader, *args, **kwargs) -> None:
    try:
        reader(*args, **kwargs)
    except HnfError:
        pass


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


small = st.integers(0, 6)

weight_bytes = st.one_of(
    st.binary(max_size=80),
    st.builds(lambda rows, cols, kind, seed, tail:
              _HEADER.pack(MAGIC, rows, cols, kind, seed) + tail,
              st.one_of(small, st.integers(0, 2 ** 32 - 1)),
              st.one_of(small, st.integers(0, 2 ** 32 - 1)),
              st.integers(0, 255), st.integers(0, 2 ** 64 - 1),
              st.binary(max_size=300)),
)


@FUZZ
@given(blob=weight_bytes)
def test_load_weight(scratch, blob):
    path = scratch / "w.hnfw"
    path.write_bytes(blob)
    returns_or_hnf_error(load_weight, path)


def idx_bytes(magic):
    u32 = st.one_of(small, st.integers(0, 2 ** 32 - 1))
    return st.one_of(
        st.binary(max_size=60),
        st.builds(lambda m, dims, tail:
                  struct.pack(f">{1 + len(dims)}I", m, *dims) + tail,
                  st.sampled_from([magic, magic ^ 1]),
                  st.lists(u32, max_size=3), st.binary(max_size=80)),
    )


@FUZZ
@given(images=idx_bytes(IDX_IMAGE_MAGIC), labels=idx_bytes(IDX_LABEL_MAGIC))
def test_load_idx(scratch, images, labels):
    img, lbl = scratch / "img.idx", scratch / "lbl.idx"
    img.write_bytes(images)
    lbl.write_bytes(labels)
    returns_or_hnf_error(load_idx, img, lbl)


csv_chars = st.text(alphabet="0123456789.-+eE,; \t\n\r_#'naifAB\"\x00é",
                    max_size=80)
# quoted labels that hold line breaks, among random text
csv_text = st.one_of(csv_chars, st.lists(st.one_of(
    st.text(alphabet="0123456789.,; \t\nAB", max_size=8),
    st.sampled_from(['"A\nB"', '"\n"', '"a,\n""b"\n', '\n"x'])),
    max_size=10).map("".join)).map(lambda s: s.encode("utf-8"))


@FUZZ
@given(blob=st.one_of(st.binary(max_size=80), csv_text),
       delimiter=st.sampled_from([",", ";", " ", "\t"]),
       has_header=st.booleans(),
       label=st.sampled_from([-1, 0, 1, 5, "A"]))
def test_load_csv(scratch, blob, delimiter, has_header, label):
    path = scratch / "data.csv"
    path.write_bytes(blob)
    returns_or_hnf_error(load_csv, path, label_column=label,
                         delimiter=delimiter, has_header=has_header)


json_value = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
map_fields = {
    "rows": st.one_of(small, json_value),
    "cols": st.one_of(small, json_value),
    "epsilon": st.one_of(st.none(), st.floats(0, 10), json_value),
    "train_cost": st.one_of(st.floats(0, 10), json_value),
    "layer_index": st.one_of(small, json_value),
    "solver": json_value,
    "matrix_file": st.one_of(
        st.sampled_from(["", ".", "..", "missing.bin", "map.bin"]),
        st.text(alphabet="ab.\x00", max_size=4), json_value),
}
map_docs = st.one_of(st.fixed_dictionaries(map_fields),
                     st.fixed_dictionaries({}, optional=map_fields),
                     json_value)


@FUZZ
@given(doc=map_docs, matrix=st.binary(max_size=96))
def test_load_output_map(scratch, doc, matrix):
    (scratch / "map.bin").write_bytes(matrix)
    path = scratch / "map.json"
    path.write_text(json.dumps(doc))
    returns_or_hnf_error(load_output_map, path)
