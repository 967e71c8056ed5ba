import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lorashear.artifacts import canonical_json
from lorashear.checkpoint import checkpoint_extra, load_checkpoint, read_checkpoint, save_checkpoint
from lorashear.errors import FormatError
from lorashear.model import LoraModel, ModelConfig, build_model
from lorashear.util import model_hash

from conftest import TINY


def test_round_trip_is_bit_identical(toy_model, tmp_path):
    path = tmp_path / "m.lshr"
    save_checkpoint(toy_model, path, extra={"stage": "test"})
    loaded = load_checkpoint(path)
    assert model_hash(loaded) == model_hash(toy_model)
    assert loaded.config == toy_model.config


def test_save_load_save_is_byte_identical(toy_model, tmp_path):
    a, b = tmp_path / "a.lshr", tmp_path / "b.lshr"
    save_checkpoint(toy_model, a, extra={"stage": "test", "n": 3})
    save_checkpoint(load_checkpoint(a), b, extra=checkpoint_extra(a))
    assert a.read_bytes() == b.read_bytes()


def test_truncated_file_is_rejected_without_partial_model(toy_model, tmp_path):
    path = tmp_path / "m.lshr"
    save_checkpoint(toy_model, path)
    blob = path.read_bytes()
    for cut in (3, 7, 40, len(blob) - 5):
        (tmp_path / "cut.lshr").write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "cut.lshr")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.lshr"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        read_checkpoint(path)


def test_bad_version_rejected(toy_model, tmp_path):
    path = tmp_path / "m.lshr"
    save_checkpoint(toy_model, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        read_checkpoint(path)


def test_compressed_model_round_trip_preserves_reduced_shapes(toy_model, tmp_path):
    from lorashear.compress import apply_compression, plan_compression
    from lorashear.graph import build_trace_graph
    from lorashear.groups import discover_node_groups, partition_variables, zero_structure

    graph = build_trace_graph(toy_model)
    node_groups = discover_node_groups(graph)
    group_set = partition_variables(node_groups, toy_model)
    victims = ["blocks.0.mlp:ch:005", "blocks.1.attn:head:002"]
    for gid in victims:
        zero_structure(toy_model, group_set.by_id[gid])
        group_set.set_status(gid, "redundant")
    plan = plan_compression(group_set, toy_model)
    compact = apply_compression(toy_model, plan)
    assert compact.blocks[0].mlp_dim == 63
    assert compact.blocks[1].n_heads == 3

    path = tmp_path / "compact.lshr"
    save_checkpoint(compact, path)
    loaded = load_checkpoint(path)
    assert model_hash(loaded) == model_hash(compact)
    assert loaded.blocks[0].mlp_dim == 63 and loaded.blocks[1].n_heads == 3
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 64, size=(2, 10))
    assert np.array_equal(loaded.forward(tokens).data, compact.forward(tokens).data)


def test_extra_metadata_round_trips(toy_model, tmp_path):
    path = tmp_path / "m.lshr"
    save_checkpoint(toy_model, path, extra={"stage": "prune", "config_hash": "abc"})
    assert checkpoint_extra(path) == {"stage": "prune", "config_hash": "abc"}


def test_extra_is_read_from_the_header_alone(toy_model, tmp_path):
    path = tmp_path / "m.lshr"
    save_checkpoint(toy_model, path, extra={"stage": "prune"})
    path.write_bytes(path.read_bytes()[:-100])
    assert checkpoint_extra(path) == {"stage": "prune"}
    with pytest.raises(FormatError, match="out of bounds"):
        load_checkpoint(path)


def test_meta_that_is_not_an_object_is_rejected(tmp_path):
    path = tmp_path / "m.lshr"
    path.write_bytes(b"LSHR" + struct.pack("<II", 1, 3) + b"[1]" + struct.pack("<I", 0))
    for read in (checkpoint_extra, load_checkpoint):
        with pytest.raises(FormatError, match="not a JSON object"):
            read(path)


def test_every_truncation_error_names_the_file(toy_model, tmp_path):
    path = tmp_path / "m.lshr"
    save_checkpoint(toy_model, path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.lshr"
    named = f"^{re.escape(str(cut))}: "
    for keep in (3, 10, 40, len(blob) - 5):
        cut.write_bytes(blob[:keep])
        with pytest.raises(FormatError, match=named):
            load_checkpoint(cut)
    cut.write_bytes(blob[:10])
    with pytest.raises(FormatError, match=named):
        checkpoint_extra(cut)


def with_raw_meta(raw: bytes, path):
    """A checkpoint of no tensors whose meta block is the bytes ``raw``."""
    path.write_bytes(b"LSHR" + struct.pack("<II", 1, len(raw)) + raw + struct.pack("<I", 0))
    return path


def with_meta(meta: dict, path):
    """A checkpoint of no tensors whose meta block is ``meta``, canonically encoded."""
    return with_raw_meta(canonical_json(meta), path)


@pytest.mark.parametrize("raw", [
    b'{"extra": {}}', b'{"extra":{},"blocks":[]}', b'{"a":1e0}', b'{"\\u0061":1}', b'{"a":1}\n',
], ids=["whitespace", "unsorted-keys", "exponent", "escaped-ascii", "newline"])
def test_meta_that_is_not_canonical_json_is_a_format_error(tmp_path, raw):
    path = with_raw_meta(raw, tmp_path / "m.lshr")
    for read in (checkpoint_extra, read_checkpoint, load_checkpoint):
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: meta block is not canonical JSON"):
            read(path)


def test_meta_integer_past_the_digit_limit_is_a_format_error(tmp_path):
    path = with_raw_meta(b'{"extra":{"n":1' + b"0" * 5000 + b"}}", tmp_path / "m.lshr")
    for read in (checkpoint_extra, load_checkpoint):
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: meta block: invalid JSON: .*4300"):
            read(path)


@pytest.mark.parametrize("mutate,message", [
    (lambda m: m["blocks"][0].pop("mlp_dim"), "meta missing field"),
    (lambda m: m["config"].update(n_heads=3), "invalid config meta"),
])
def test_bad_meta_is_a_format_error_naming_the_file(toy_model, tmp_path, mutate, message):
    from lorashear.checkpoint import model_meta

    meta = model_meta(toy_model)
    mutate(meta)
    path = with_meta(meta, tmp_path / "m.lshr")
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: {message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 10**400, 0.0])
def test_lora_gamma_not_positive_and_finite_is_a_format_error(toy_model, tmp_path, gamma):
    from lorashear.checkpoint import model_meta

    meta = model_meta(toy_model)
    meta["config"]["lora_gamma"] = gamma
    path = with_meta(meta, tmp_path / "m.lshr")
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: invalid config meta: .*lora_gamma"):
        load_checkpoint(path)


def write_raw(path, meta: dict, named: list[tuple[str, np.ndarray]]):
    """A checkpoint holding ``named`` in the given order, duplicates included."""
    raw = canonical_json(meta)
    head = b"LSHR" + struct.pack("<II", 1, len(raw)) + raw + struct.pack("<I", len(named))
    table_size = sum(2 + len(n.encode()) + 2 + 4 * a.ndim + 8 for n, a in named)
    offset, table = len(head) + table_size, b""
    for name, arr in named:
        table += struct.pack("<H", len(name.encode())) + name.encode()
        table += struct.pack("<BB", 0, arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        table += struct.pack("<Q", offset)
        offset += 8 * arr.size
    path.write_bytes(head + table + b"".join(a.astype("<f8").tobytes() for _, a in named))
    return path


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_is_a_format_error_naming_file_and_tensor(toy_model, tmp_path, value):
    toy_model.blocks[1].up.weight.data[3, 5] = value
    path = tmp_path / "m.lshr"
    save_checkpoint(toy_model, path)
    named = f"{re.escape(str(path))}: tensor blocks.1.mlp.up.weight holds non-finite values"
    for read in (read_checkpoint, load_checkpoint):
        with pytest.raises(FormatError, match=named):
            read(path)


def mlp_rows(n: int):
    """Cut block 0's MLP tensors to its first ``n`` channels."""
    def cut(name, arr):
        if name.startswith(("blocks.0.mlp.gate.", "blocks.0.mlp.up.")):
            return arr if name.endswith("lora_A") else arr[:n]
        return arr[:, :n] if name in ("blocks.0.mlp.down.weight", "blocks.0.mlp.down.lora_A") else arr
    return lambda named: [(name, cut(name, arr)) for name, arr in named]


def unchanged(x):
    return x


def third_block(named):
    """Block 0's tensors again, as block 2."""
    copies = [(n.replace("blocks.0.", "blocks.2.", 1), a) for n, a in named if n.startswith("blocks.0.")]
    return named + copies


def write_head_split(path, model, n_heads: int, head_dim: int):
    """A checkpoint of ``model`` whose block 0 meta splits attention into
    ``n_heads`` heads of ``head_dim``, with q/k/v rows and o columns cut to match."""
    from lorashear.checkpoint import model_meta

    meta = model_meta(model)
    meta["blocks"][0].update(n_heads=n_heads, head_dim=head_dim)
    inner = n_heads * head_dim

    def cut(name, arr):
        if name.startswith(("blocks.0.attn.q.", "blocks.0.attn.k.", "blocks.0.attn.v.")):
            return arr if name.endswith("lora_A") else arr[:inner]
        return arr[:, :inner] if name in ("blocks.0.attn.o.weight", "blocks.0.attn.o.lora_A") else arr

    return write_raw(path, meta, [(n, cut(n, t.data)) for n, t in sorted(model.parameters().items())])


@pytest.mark.parametrize("edit_meta,edit_named,message", [
    (unchanged, lambda named: named + [("head.weight", np.zeros((64, 32)))],
     "duplicate tensor head.weight"),
    (unchanged, lambda named: named + [("blocks.2.attn.q.weight", np.ones((32, 32)))],
     "tensor blocks.2.attn.q.weight has no slot"),
    # a compact checkpoint whose meta still states the width it was pruned from
    (unchanged, mlp_rows(46),
     r"tensor blocks.0.mlp.gate.weight has shape \(46, 32\), the meta implies \(64, 32\)"),
    (lambda m: m["blocks"][1].update(n_heads=3), unchanged,
     r"tensor blocks.1.attn.q.weight has shape \(32, 32\), the meta implies \(24, 32\)"),
    (lambda m: m["blocks"][0].update(head_dim=4), unchanged,
     r"tensor blocks.0.attn.q.weight has shape \(32, 32\), the meta implies \(16, 32\)"),
    (lambda m: m["config"].update(dim=16), unchanged,
     r"tensor tok_embedding has shape \(64, 32\), the meta implies \(64, 16\)"),
    (lambda m: m["config"].update(lora_rank=2), unchanged,
     r"tensor blocks.0.attn.q.lora_A has shape \(4, 32\), the meta implies \(2, 32\)"),
    (lambda m: m["blocks"][0].update(n_heads=-4, head_dim=-8), unchanged,
     r"block 0 meta has invalid dims \[-4, -8, 64\]"),
    # a third block, tensors and all, under a config of two
    (lambda m: m["blocks"].append(m["blocks"][0]), third_block,
     "meta lists 3 blocks, config n_layers is 2"),
    # a rank-4 checkpoint whose q projection has no adaptor
    (unchanged, lambda named: [(n, a) for n, a in named if not n.startswith("blocks.0.attn.q.lora_")],
     "missing tensor blocks.0.attn.q.lora_A"),
], ids=["duplicate", "unknown-name", "mlp_dim-over-46-rows", "n_heads", "head_dim", "config-dim",
        "config-lora_rank", "negative-dims", "blocks-past-n_layers", "unadapted-projection"])
def test_table_contradicting_itself_or_the_meta_is_a_format_error(
    toy_model, tmp_path, edit_meta, edit_named, message
):
    from lorashear.checkpoint import model_meta

    meta = model_meta(toy_model)
    edit_meta(meta)
    named = sorted((n, t.data) for n, t in toy_model.parameters().items())
    path = write_raw(tmp_path / "m.lshr", meta, sorted(edit_named(named), key=lambda t: t[0]))
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: {message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("n_heads,head_dim", [(4, 0), (0, 0), (2, 16)])
def test_block_head_dim_other_than_the_configs_is_a_format_error(toy_model, tmp_path, n_heads, head_dim):
    # every shape agrees with the meta; only the head split leaves dim / n_heads = 8
    path = write_head_split(tmp_path / "m.lshr", toy_model, n_heads, head_dim)
    with pytest.raises(
        FormatError, match=f"{re.escape(str(path))}: block 0 head_dim {head_dim} is not config dim / n_heads = 8"
    ):
        load_checkpoint(path)


def test_table_out_of_name_order_is_a_format_error(toy_model, tmp_path):
    from lorashear.checkpoint import model_meta

    named = sorted((n, t.data) for n, t in toy_model.parameters().items())
    named[0], named[1] = named[1], named[0]
    path = write_raw(tmp_path / "m.lshr", model_meta(toy_model), named)
    for read in (read_checkpoint, load_checkpoint):
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: tensor table is not sorted by name"):
            read(path)


@pytest.mark.parametrize("edit", [
    lambda m: m.update(extrb=m.pop("extra")),
    lambda m: m.pop("extra"),
    lambda m: m["config"].update(note=1),
    lambda m: m["blocks"][0].update(note=1),
], ids=["renamed-extra", "no-extra", "config-field", "block-field"])
def test_meta_fields_save_would_not_write_are_a_format_error(toy_model, tmp_path, edit):
    from lorashear.checkpoint import model_meta

    meta = model_meta(toy_model)
    edit(meta)
    named = sorted((n, t.data) for n, t in toy_model.parameters().items())
    path = write_raw(tmp_path / "m.lshr", meta, named)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: meta holds fields other than"):
        load_checkpoint(path)


def test_corrupt_tensor_name_is_a_format_error(toy_model, tmp_path):
    path = tmp_path / "m.lshr"
    save_checkpoint(toy_model, path)
    blob = bytearray(path.read_bytes())
    meta_len = struct.unpack("<I", blob[8:12])[0]
    first_name = 12 + meta_len + 4 + 2  # after the meta, the tensor count and the name length
    blob[first_name] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="corrupt tensor name"):
        load_checkpoint(path)


def offset_fields(blob: bytes) -> list[int]:
    """Byte position of each table entry's u64 payload offset, in table order."""
    pos = 12 + struct.unpack_from("<I", blob, 8)[0]
    n_tensors = struct.unpack_from("<I", blob, pos)[0]
    pos += 4
    fields = []
    for _ in range(n_tensors):
        pos += 2 + struct.unpack_from("<H", blob, pos)[0] + 1
        pos += 1 + 4 * blob[pos]
        fields.append(pos)
        pos += 8
    return fields


def move_payload(i: int, to):
    """Rewrite table entry ``i``'s offset to ``to(old offset, its field's position)``."""
    def edit(blob):
        field = offset_fields(blob)[i]
        old = struct.unpack_from("<Q", blob, field)[0]
        return blob[:field] + struct.pack("<Q", to(old, field)) + blob[field + 8:]
    return edit


@pytest.mark.parametrize("edit,tensor,message", [
    (lambda blob: blob + b"\x00", None, r"1 trailing byte\(s\) after the last payload"),
    (move_payload(1, lambda old, _: old + 8), 1, "starts at byte"),
    (move_payload(1, lambda old, _: old - 8), 1, "starts at byte"),
    (move_payload(0, lambda _, field: field), 0, "starts at byte"),
], ids=["trailing-byte", "gap", "overlap", "offset-into-the-table"])
def test_payloads_out_of_layout_are_a_format_error(toy_model, tmp_path, edit, tensor, message):
    path = tmp_path / "m.lshr"
    save_checkpoint(toy_model, path)
    path.write_bytes(edit(path.read_bytes()))
    named = re.escape(str(path)) + ": "
    if tensor is not None:
        named += f"payload for tensor {re.escape(sorted(toy_model.parameters())[tensor])} "
    with pytest.raises(FormatError, match=named + message):
        load_checkpoint(path)


def write_dims(path, dims, payload: bytes):
    """A one-tensor checkpoint (empty meta) whose table entry claims ``dims``."""
    head = b"LSHR" + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<I", 1)
    entry = struct.pack("<H", 1) + b"w" + struct.pack("<BB", 0, len(dims))
    entry += struct.pack(f"<{len(dims)}I", *dims)
    path.write_bytes(head + entry + struct.pack("<Q", len(head) + len(entry) + 8) + payload)
    return path


@pytest.mark.parametrize("dims,payload,message", [
    ((1,) * 65, b"\0" * 8, "tensor w has 65 dims, more than 64"),
    ((2**31, 2**31, 2**31, 4), b"", "payload for tensor w out of bounds"),  # np.prod wraps to 0
], ids=["65-dims", "size-past-int64"])
def test_shape_numpy_cannot_hold_is_a_format_error(tmp_path, dims, payload, message):
    path = write_dims(tmp_path / "m.lshr", dims, payload)
    for read in (read_checkpoint, load_checkpoint):
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: {message}"):
            read(path)


def _tiny_blob() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiny.lshr"
        save_checkpoint(build_model(ModelConfig(seed=5, **TINY)), path)
        return path.read_bytes()


BLOB = _tiny_blob()
# the digit of the config's n_heads (the block metadata sorts first and has its own)
CONFIG_N_HEADS = BLOB.index(b'"n_heads":', BLOB.index(b'"config":')) + len(b'"n_heads":')


@pytest.fixture(scope="module")
def mutated(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "m.lshr"


def load_or_named_format_error(path) -> bool:
    """True if ``path`` loads; False if it raises a FormatError naming the file."""
    try:
        assert isinstance(load_checkpoint(path), LoraModel)
    except FormatError as e:
        assert str(path) in str(e)
        return False
    return True


class TestByteMutations:
    @settings(max_examples=300)
    @given(st.integers(0, len(BLOB) - 1), st.integers(0, 255))
    @example(CONFIG_N_HEADS, ord("0"))
    def test_any_byte_replacement_loads_or_is_a_format_error(self, mutated, pos, byte):
        mutated.write_bytes(BLOB[:pos] + bytes([byte]) + BLOB[pos + 1:])
        if load_or_named_format_error(mutated):  # then save(load(f)) == f
            resaved = mutated.with_name("resaved.lshr")
            save_checkpoint(load_checkpoint(mutated), resaved, extra=checkpoint_extra(mutated))
            assert resaved.read_bytes() == mutated.read_bytes()

    @given(st.integers(0, len(BLOB) - 1))
    def test_every_truncation_is_a_format_error(self, mutated, keep):
        mutated.write_bytes(BLOB[:keep])
        assert not load_or_named_format_error(mutated)

    @given(st.binary(min_size=1, max_size=16))
    def test_every_append_is_a_format_error(self, mutated, tail):
        mutated.write_bytes(BLOB + tail)
        assert not load_or_named_format_error(mutated)

    def test_unmutated_blob_loads(self, mutated):
        mutated.write_bytes(BLOB)
        assert load_or_named_format_error(mutated)
