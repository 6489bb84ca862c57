"""Pure-Python LZ4 *block format* codec.

Implements the LZ4 block format (https://github.com/lz4/lz4, the
algorithm the paper offloads to its FPGA engines): a stream of sequences,
each a token byte (literal-length nibble, match-length nibble), optional
LSIC length extensions, literal bytes, a 2-byte little-endian match
offset, and an optional match-length extension. The compressor is a
greedy matcher with the format's end-of-block restrictions (the last 5
bytes are always literals; no match starts within the last 12 bytes).

This codec is used for *functional* fidelity (real bytes really get
compressed and restored along the simulated datapath) and to calibrate
the corpus compression ratios; simulated compression *speed* comes from
:mod:`repro.compression.model`.

Two compressor paths share the emit helpers and produce interchangeable
blocks:

- ``_compress_scalar`` — the classic per-position hash-table scan with a
  fixed ``2**HASH_LOG`` table and skip acceleration. Used for small
  inputs (numpy dispatch overhead dominates) and very large ones (the
  vector path's sort-built chains grow superlinearly past ~256 KiB).
- ``_compress_vector`` — the whole block is compressed with numpy array
  passes: one sort builds every position's previous-occurrence chain,
  candidate verification and match extension run as array compares, and
  the output block is assembled with gather/scatter index arithmetic.
  The only per-sequence Python left is a pointer-following loop over a
  precomputed jump table. See ``docs/performance.md`` for the profile.

Both paths run on numpy, which this module does not import until the
codec first compresses (:func:`load_vector_backend`): a run that never
compresses real bytes never pays numpy's import time or memory.
"""

from __future__ import annotations

import typing

#: The numpy module, bound by :func:`load_vector_backend` (None until then).
np: typing.Any = None

#: Minimum match length the format can encode.
MIN_MATCH = 4
#: No match may start within this many bytes of the end of input.
MF_LIMIT = 12
#: The last sequence must hold at least this many literal bytes.
LAST_LITERALS = 5
#: Maximum distance a match offset can reach back.
MAX_OFFSET = 0xFFFF

#: log2 of the match-table slot count. The scalar path keeps a fixed
#: array of ``2**HASH_LOG`` positions (reference LZ4's layout); the
#: vector path reports the same bound from its hash-sorted chain.
HASH_LOG = 13

#: After ``2**SKIP_TRIGGER`` consecutive match misses the scalar scan
#: starts striding (reference LZ4's skip acceleration).
SKIP_TRIGGER = 5

#: Stride for chunked match extension in the scalar path.
_EXTEND_STRIDE = 32

#: Fibonacci multiplicative-hash constant (reference LZ4's 2654435761),
#: as a ``np.uint32`` once :func:`load_vector_backend` has run.
_HASH_MULTIPLIER: typing.Any = 2654435761

#: Inputs shorter than this take the scalar path: below ~1 KiB the fixed
#: cost of the vector passes exceeds the whole scalar scan.
_VECTOR_MIN = 1024

#: Inputs longer than this also take the scalar path. The sort-built
#: candidate chains grow superlinearly with input size (longer chains to
#: walk per position, bigger survivor sets per extension round), and past
#: ~256 KiB the vector passes fall below the bounded-table scalar scan —
#: which the datapath never notices, since it compresses 4 KiB blocks.
_VECTOR_MAX = 1 << 18

#: The vectorized match extension compares 4-byte groups for this many
#: rounds (matches up to ``4 + 4*_MAX_EXTEND_GROUPS + 3`` bytes) before
#: giving up on the remaining (rare) very long matches; a small survivor
#: set is finished exactly in Python, a large one (all-runs input) is
#: truncated and the follow-up match continues the run.
_MAX_EXTEND_GROUPS = 16

#: Candidate thinning: inside a run of at least this many consecutive
#: match candidates, only every 4th position is kept (plus the run head).
#: Greedy selection lands on a nearby survivor and the vectorized
#: *backward* extension recovers the skipped bytes, so the ratio cost is
#: small while candidate-array work drops ~2x on dense (text) input.
_THIN_RUN = 4

#: Backward extension is capped at this many bytes: enough to undo
#: thinning (spacing 4) with headroom, while bounding the per-byte
#: array-compare rounds.
_BACK_CAP = 8

#: When the surviving set in the group-extension loop falls to this size
#: or below, the remaining long matches are finished exactly in Python
#: instead of paying further whole-array rounds.
_FINISH_SCALAR = 16

#: Per-block-size constants (index ramp, thinning mask) are cached and
#: reused — datapath traffic compresses fixed-size blocks, so the same
#: few sizes recur constantly.
_SIZE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_SIZE_CACHE_MAX = 8


#: Grow-only ``arange`` cache behind :func:`_iota`; built by
#: :func:`load_vector_backend`.
_IOTA: typing.Any = None


def load_vector_backend() -> None:
    """Import numpy and build the codec's array constants (idempotent).

    :func:`lz4_compress` calls this on first use. Callers that will
    compress real bytes may call it ahead of time, so the import lands
    in their set-up rather than in their first compression.
    """
    global np, _HASH_MULTIPLIER, _IOTA
    if np is not None:
        return
    import numpy

    _HASH_MULTIPLIER = numpy.uint32(2654435761)
    _IOTA = numpy.arange(8192, dtype=numpy.intp)
    np = numpy


class CorruptFrameError(ValueError):
    """Raised when decompression meets malformed input."""


def _write_lsic(out: bytearray, value: int) -> None:
    """Append the LSIC (Linear Small-Integer Code) extension for `value`."""
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


def _emit_sequence(
    out: bytearray,
    literals: memoryview,
    offset: int | None,
    match_extra: int,
) -> None:
    """Append one sequence; `offset is None` marks the final literal run.

    `match_extra` is the match length minus :data:`MIN_MATCH`.
    """
    lit_len = len(literals)
    lit_nibble = 15 if lit_len >= 15 else lit_len
    match_nibble = 0 if offset is None else (15 if match_extra >= 15 else match_extra)
    out.append((lit_nibble << 4) | match_nibble)
    if lit_len >= 15:
        _write_lsic(out, lit_len - 15)
    out += literals
    if offset is not None:
        out += offset.to_bytes(2, "little")
        if match_extra >= 15:
            _write_lsic(out, match_extra - 15)


def lz4_compress(
    data: bytes,
    *,
    _hash_log: int = HASH_LOG,
    _stats: dict | None = None,
) -> bytes:
    """Compress `data` into an LZ4 block.

    Round-trips through :func:`lz4_decompress` for arbitrary input. Like
    the reference implementation, incompressible input grows slightly
    (one token plus LSIC bytes of overhead).

    Inputs of :data:`_VECTOR_MIN` to :data:`_VECTOR_MAX` bytes go
    through the fully vectorized matcher (``_compress_vector``); inputs
    outside that band through the scalar hash-table scan
    (``_compress_scalar``). Both emit standard block format; they may
    pick different (equally valid) matches.

    `_stats`, when given a dict, receives ``table_slots`` and
    ``peak_table_entries`` (test/diagnostic hook; zero hot-path cost) —
    both are at most ``2**_hash_log`` for any input size.
    """
    if np is None:
        load_vector_backend()
    src = memoryview(bytes(data))
    n = len(src)
    if _VECTOR_MIN <= n <= _VECTOR_MAX:
        return _compress_vector(src, n, _hash_log, _stats)
    return _compress_scalar(src, n, _hash_log, _stats)


def _compress_scalar(
    src: memoryview, n: int, _hash_log: int, _stats: dict | None
) -> bytes:
    """Per-position greedy scan with a fixed hash table (small inputs)."""
    out = bytearray()
    if n == 0:
        if _stats is not None:
            _stats.update(table_slots=0, peak_table_entries=0)
        out.append(0)  # empty literal run, no match
        return bytes(out)

    match_scan_end = n - MF_LIMIT
    anchor = 0
    i = 0
    raw = src.obj  # the underlying bytes, for fast indexing/slicing
    last_match_start = n - LAST_LITERALS
    stride = _EXTEND_STRIDE

    if match_scan_end > 0:
        # One vectorized pass: hash of the 4-byte window at every position,
        # packed little-endian into a u16 buffer the scan loop indexes.
        windows = np.ndarray(buffer=raw, shape=(n - 3,), dtype="<u4", strides=(1,))
        hashes = memoryview(
            ((windows * _HASH_MULTIPLIER) >> np.uint32(32 - _hash_log))
            .astype("<u2")
            .tobytes()
        ).cast("H")
        table = [-1] * (1 << _hash_log)
        search_count = 1 << SKIP_TRIGGER
        # Inputs that fit inside the offset window never need the
        # distance check in the hot loop.
        small = n <= MAX_OFFSET + MIN_MATCH
        append = out.append

        while i < match_scan_end:
            h = hashes[i]
            candidate = table[h]
            table[h] = i
            if (
                candidate < 0
                or raw[candidate : candidate + 4] != raw[i : i + 4]
                or (not small and i - candidate > MAX_OFFSET)
            ):
                # Miss: advance, striding faster the longer nothing matches.
                step = search_count >> SKIP_TRIGGER
                search_count += 1
                i += step
                continue
            search_count = 1 << SKIP_TRIGGER

            # Extend the match forward, leaving LAST_LITERALS bytes untouched.
            match_len = MIN_MATCH
            max_match = last_match_start - i
            while (
                match_len + stride <= max_match
                and raw[candidate + match_len : candidate + match_len + stride]
                == raw[i + match_len : i + match_len + stride]
            ):
                match_len += stride
            while match_len < max_match and raw[candidate + match_len] == raw[i + match_len]:
                match_len += 1

            lit_len = i - anchor
            extra = match_len - MIN_MATCH
            offset = i - candidate
            if lit_len < 15 and extra < 15:
                # Common case inlined: one token, literals, 2-byte offset.
                append(lit_len << 4 | extra)
                out += raw[anchor:i]
                append(offset & 0xFF)
                append(offset >> 8)
            else:
                _emit_sequence(out, src[anchor:i], offset=offset, match_extra=extra)
            i += match_len
            anchor = i

        if _stats is not None:
            slots = 1 << _hash_log
            _stats.update(
                table_slots=slots,
                peak_table_entries=slots - table.count(-1),
            )
    elif _stats is not None:
        _stats.update(table_slots=0, peak_table_entries=0)

    _emit_sequence(out, src[anchor:n], offset=None, match_extra=0)
    return bytes(out)


def _compress_vector(
    src: memoryview, n: int, _hash_log: int, _stats: dict | None
) -> bytes:
    """Whole-block vectorized greedy matcher.

    The scan is restructured from "loop over positions, probe a table"
    into array passes over *all* positions at once:

    1. **Chain build.** Pack ``(window_hash, position)`` into one integer
       key per position and sort it: each position's predecessor in the
       sorted order with the same hash is its nearest earlier candidate
       — the same candidate an always-overwritten 1-slot table would
       yield, computed without a sequential probe loop.
    2. **Verify.** One array compare checks every candidate's 4-byte
       window and offset distance; dense candidate runs are thinned
       (:data:`_THIN_RUN`).
    3. **Extend.** Match lengths for all candidates advance 4 bytes per
       array compare round (:data:`_MAX_EXTEND_GROUPS`), plus a final
       XOR pass that scores the 0–3 byte tail.
    4. **Select.** A rank cumsum over ``valid`` precomputes each
       candidate's jump target (first candidate past its match, as
       ``rank[i + L - 1]``); greedy selection is then
       a pointer-following Python loop — the only per-sequence Python in
       the function. Selected matches extend *backward* into their
       literal run (array passes again), recovering bytes thinning
       skipped.
    5. **Assemble.** Tokens, LSIC extensions, literal copies, and
       offsets are scattered into one output buffer with index
       arithmetic (ranges become gather/scatter index arrays via
       repeat + cumsum).
    """
    out = bytearray()
    match_scan_end = n - MF_LIMIT
    anchor = 0
    raw = src.obj
    if match_scan_end > 0:
        nw = n - 3
        # Contiguous copy of the 4-byte windows: the strided overlapping
        # view is cheap to copy once and every later gather on the
        # contiguous array is substantially faster.
        w = np.ndarray(buffer=raw, shape=(nw,), dtype="<u4", strides=(1,)).copy()
        hashes = (w * _HASH_MULTIPLIER) >> np.uint32(32 - _hash_log)
        cached = _SIZE_CACHE.get(nw)
        if cached is None:
            if len(_SIZE_CACHE) >= _SIZE_CACHE_MAX:
                _SIZE_CACHE.clear()
            pos = np.arange(nw, dtype=np.intp)
            cached = (
                pos,
                pos.astype(np.uint32),
                (pos & (_THIN_RUN - 1)) != 0,
            )
            _SIZE_CACHE[nw] = cached
        pos, pos_u32, mod_mask = cached
        pos_bits = nw.bit_length()
        if _hash_log + pos_bits <= 32:
            key = np.left_shift(hashes, np.uint32(pos_bits), out=hashes)
            key |= pos_u32
            key.sort()
            order = (key & np.uint32((1 << pos_bits) - 1)).astype(np.intp)
            oh = key >> np.uint32(pos_bits)
        else:
            key = hashes.astype(np.uint64) << np.uint64(32)
            key |= pos.view(np.uint64)
            key.sort()
            order = (key & np.uint64(0xFFFFFFFF)).astype(np.intp)
            oh = key >> np.uint64(32)
        same = oh[1:] == oh[:-1]
        if _stats is not None:
            _stats.update(
                table_slots=1 << _hash_log,
                peak_table_entries=int(same.size - int(same.sum())) + (1 if same.size else 1),
            )
        cand = pos.copy()
        cand[order[1:][same]] = order[:-1][same]
        # dist-1 as unsigned folds the "is a real predecessor" (dist > 0)
        # and the window-distance checks into one compare.
        dist = pos - cand
        valid = (dist - 1).view(np.uint64) < np.uint64(MAX_OFFSET)
        valid &= w[cand] == w
        valid[match_scan_end:] = False
        if nw > 64:
            run = valid[: -(_THIN_RUN - 1)] & valid[1 : 2 - _THIN_RUN]
            for k in range(2, _THIN_RUN - 1):
                run &= valid[k : k + 1 - _THIN_RUN]
            run &= valid[_THIN_RUN - 1 :]
            run &= mod_mask[_THIN_RUN - 1 :]
            valid[_THIN_RUN - 1 :] &= ~run
        vidx = np.flatnonzero(valid)
        if vidx.size:
            vc = cand[vidx]
            L = np.full(vidx.size, MIN_MATCH, dtype=np.intp)
            act = np.arange(vidx.size, dtype=np.intp)
            limit = nw - 1
            g = 0
            while act.size > _FINISH_SCALAR and g < _MAX_EXTEND_GROUPS:
                g += 1
                off = 4 * g
                ia = vidx[act] + off
                if int(ia[-1]) > limit:
                    # act is sorted by position, so out-of-range reads are a
                    # suffix — slice instead of boolean-filtering.
                    cut = int(np.searchsorted(ia, limit, side="right"))
                    if not cut:
                        break
                    act = act[:cut]
                    ia = ia[:cut]
                still = w[vc[act] + off] == w[ia]
                act = act[still]
                L[act] += 4
            if act.size > _FINISH_SCALAR:
                # Many matches are still extending after every vector
                # round: the highly repetitive regime (long runs), where
                # capping match length would fragment giant matches and
                # crater the ratio. The scalar path is fast exactly here —
                # one long match per run, extended 8 bytes per iteration
                # with skip acceleration — so hand the block over wholesale.
                return _compress_scalar(src, n, _hash_log, _stats)
            if act.size:
                # A small survivor set of long matches: finish them exactly
                # (bounded per match; runs past the bound chain into the
                # immediately following candidate instead).
                end_cap = n - LAST_LITERALS
                for a in act.tolist():
                    i0 = int(vidx[a])
                    c0 = int(vc[a])
                    length = int(L[a])
                    cap = min(end_cap - i0, length + 2048)
                    while (
                        length + 8 <= cap
                        and raw[c0 + length : c0 + length + 8]
                        == raw[i0 + length : i0 + length + 8]
                    ):
                        length += 8
                    while length < cap and raw[c0 + length] == raw[i0 + length]:
                        length += 1
                    L[a] = length
            # Deferred tail pass: score the 0-3 extra bytes after the last
            # whole 4-byte group from one XOR. Clipping to the format's
            # end-restriction first keeps every read in range (vidx + L <=
            # n - LAST_LITERALS <= nw - 1) with no per-element guard;
            # exactly-finished matches XOR non-equal windows, scoring 0.
            room = (n - LAST_LITERALS) - vidx
            np.minimum(L, room, out=L)
            d = w[vc + L] ^ w[vidx + L]
            L += (d & 0xFF) == 0
            L += (d & 0xFFFF) == 0
            L += (d & 0xFFFFFF) == 0
            np.minimum(L, room, out=L)
            # Greedy selection. rank[p] counts candidates at positions <= p,
            # so rank[i + L - 1] is the index of the first candidate past
            # the match at i — the jump table, via one cumsum + gather.
            # The greedy chain from candidate 0 is then enumerated by
            # pointer doubling: each round appends jump[path] and squares
            # the jump table, so a k-sequence chain needs ~log2(k) array
            # gathers instead of k Python iterations. A sentinel entry at
            # index m absorbs the chain end (jump[m] == m), making the
            # path sorted: real entries, then repeated m's.
            rank = np.cumsum(valid)
            m = vidx.size
            jump = np.empty(m + 1, dtype=np.intp)
            jump[:-1] = rank[vidx + L - 1]
            jump[-1] = m
            path = np.zeros(1, dtype=np.intp)
            while True:
                ext = jump[path]
                path = np.concatenate((path, ext))
                if int(ext[-1]) >= m:
                    break
                jump = jump[jump]
            s = path[: int(np.searchsorted(path, m))]
            ai = vidx[s]
            al = L[s]
            ad = dist[ai]
            ends = ai + al
            anchors = np.empty_like(ai)
            anchors[0] = 0
            anchors[1:] = ends[:-1]
            # Backward extension: grow each match into its literal run
            # (match end — and therefore the next match's room — is
            # unchanged, so every match extends independently).
            back_room = np.minimum(ai - anchors, np.intp(_BACK_CAP))
            barr = np.frombuffer(raw, dtype=np.uint8)
            if bool((back_room > 0).any()):
                # One u64 XOR per match scores all (<= _BACK_CAP = 8)
                # backward bytes at once: the window ending at ai-1 agrees
                # with the window ending at ai-ad-1 in exactly the XOR's
                # leading-zero bytes (little-endian, so high bytes are the
                # positions adjacent to the match head). Reads need 8 bytes
                # of history before the match *source*; the few matches
                # whose source sits in the first 8 bytes skip extension.
                w8 = np.ndarray(buffer=raw, shape=(n - 7,), dtype="<u8", strides=(1,))
                ok = (ai - ad) >= 8
                i1 = np.where(ok, ai, np.intp(8)) - 8
                d = w8[i1] ^ w8[i1 - ad]
                back = (d < (1 << 56)).astype(np.intp)
                back += d < (1 << 48)
                back += d < (1 << 40)
                back += d < (1 << 32)
                back += d < (1 << 24)
                back += d < (1 << 16)
                back += d < (1 << 8)
                back += d == 0
                back *= ok
                np.minimum(back, back_room, out=back)
                ai = ai - back
                al = al + back
            lit = ai - anchors
            extra = al - MIN_MATCH
            # Assembly: compute every byte's destination, then scatter.
            long_lit = bool(lit.max() >= 15)
            long_match = bool(extra.max() >= 15)
            seq_len = lit + 3
            if long_lit:
                lv = lit - 15
                le = np.where(lit >= 15, lv // 255 + 1, 0)
                seq_len = seq_len + le
            if long_match:
                mv = extra - 15
                me = np.where(extra >= 15, mv // 255 + 1, 0)
                seq_len = seq_len + me
            seq_off = np.empty_like(seq_len)
            seq_off[0] = 0
            np.cumsum(seq_len[:-1], out=seq_off[1:])
            buf = np.empty(int(seq_off[-1] + seq_len[-1]), dtype=np.uint8)
            buf[seq_off] = np.minimum(lit, 15) << 4 | np.minimum(extra, 15)
            lstart = seq_off + 1
            if long_lit:
                lstart = lstart + le
            total = int(lit.sum())
            if total:
                ramp = _iota(total) - np.repeat(np.cumsum(lit) - lit, lit)
                buf[np.repeat(lstart, lit) + ramp] = barr[np.repeat(ai - lit, lit) + ramp]
            op = lstart + lit
            buf[op] = ad & 0xFF
            buf[op + 1] = ad >> 8
            if long_lit and long_match:
                _scatter_lsic(
                    buf,
                    np.concatenate((seq_off + 1, op + 2)),
                    np.concatenate((le, me)),
                    np.concatenate((lv, mv)),
                )
            elif long_lit:
                _scatter_lsic(buf, seq_off + 1, le, lv)
            elif long_match:
                _scatter_lsic(buf, op + 2, me, mv)
            out += buf.tobytes()
            anchor = int(ends[-1])
    elif _stats is not None:
        _stats.update(table_slots=0, peak_table_entries=0)

    _emit_sequence(out, src[anchor:n], offset=None, match_extra=0)
    return bytes(out)


def _iota(total: int) -> np.ndarray:
    """A read-only view of ``arange(total)`` from a grow-only cache."""
    global _IOTA
    if total > _IOTA.size:
        _IOTA = np.arange(max(total, 2 * _IOTA.size), dtype=np.intp)
    return _IOTA[:total]


def _scatter_lsic(
    buf: np.ndarray, start: np.ndarray, count: np.ndarray, value: np.ndarray
) -> None:
    """Scatter LSIC extensions (``count[k]`` bytes at ``start[k]``) into `buf`.

    Every extension byte is 255 except the last, which carries
    ``value % 255`` — scattered as a range-fill (via repeat + cumsum
    index arrays) plus one fancy write for the final bytes.
    """
    has = np.flatnonzero(count)
    c = count[has]
    st = start[has]
    total = int(c.sum())
    ramp = _iota(total) - np.repeat(np.cumsum(c) - c, c)
    buf[np.repeat(st, c) + ramp] = 255
    buf[st + c - 1] = value[has] % 255


def lz4_decompress(blob: bytes, max_output: int = 1 << 30) -> bytes:
    """Decompress an LZ4 block produced by :func:`lz4_compress`.

    `max_output` bounds the output size to keep corrupt input from
    ballooning memory; exceeding it raises :class:`CorruptFrameError`.

    The sequence loop keeps everything in locals, tracks the output
    length itself instead of re-measuring the buffer, and inlines the
    common LSIC-free header parse; literal and match copies are bulk
    slice operations (overlapping matches build their region by doubling
    a seed chunk).
    """
    pos = 0
    n = len(blob)
    if n == 0:
        raise CorruptFrameError("empty input is not a valid LZ4 block")
    out = bytearray()
    olen = 0

    while pos < n:
        token = blob[pos]
        pos += 1

        literal_len = token >> 4
        if literal_len == 15:
            while True:
                if pos >= n:
                    raise CorruptFrameError("truncated LSIC length extension")
                byte = blob[pos]
                pos += 1
                literal_len += byte
                if byte != 255:
                    break
        if literal_len:
            end = pos + literal_len
            if end > n:
                raise CorruptFrameError("literal run overflows input")
            out += blob[pos:end]
            pos = end
            olen += literal_len
            if olen > max_output:
                raise CorruptFrameError("output exceeds max_output")

        if pos == n:
            break  # final sequence has no match part

        if pos + 2 > n:
            raise CorruptFrameError("truncated match offset")
        offset = blob[pos] | (blob[pos + 1] << 8)
        pos += 2
        if offset == 0:
            raise CorruptFrameError("match offset of zero")
        if offset > olen:
            raise CorruptFrameError("match offset reaches before output start")

        match_len = token & 0x0F
        if match_len == 15:
            while True:
                if pos >= n:
                    raise CorruptFrameError("truncated LSIC length extension")
                byte = blob[pos]
                pos += 1
                match_len += byte
                if byte != 255:
                    break
        match_len += MIN_MATCH

        start = olen - offset
        if offset >= match_len:
            out += out[start : start + match_len]
        else:
            # Overlapping match: the copied region grows as we copy. Build
            # it by doubling the seed chunk.
            chunk = bytes(out[start:])
            while len(chunk) < match_len:
                chunk += chunk
            out += chunk[:match_len]
        olen += match_len
        if olen > max_output:
            raise CorruptFrameError("output exceeds max_output")

    return bytes(out)


def compression_ratio(data: bytes) -> float:
    """Convenience: ``len(data) / len(lz4_compress(data))`` (< 1 for incompressible data)."""
    if len(data) == 0:
        return 1.0
    return len(data) / len(lz4_compress(data))
