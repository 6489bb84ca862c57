"""Deterministic synthetic stand-in for the Silesia compression corpus.

The paper evaluates on the Silesia corpus [75], "a data set of files that
covers the typical data types used nowadays". The corpus itself is not
redistributable here, so this module generates a corpus with the same
*class mix* — literary English, structured XML/HTML, database tables,
executable-like binary, medical imagery (high-entropy), and program
source — calibrated so that the aggregate LZ4 compression ratio lands
near the ~2.1x the real corpus achieves.

All generators are seeded; the same seed always yields identical bytes.
"""

from __future__ import annotations

import dataclasses
import random
import typing


_WORDS = (
    "the of and a to in is was he that it his her you as had with for she not "
    "at but be have this which one said from by were all me so no when an my "
    "on them him there little out up into time good very your some could then "
    "about made man other day old come two who down like more these went say "
    "storage block cloud server request memory network data compress middle "
    "tier virtual machine segment chunk replica snapshot failover latency"
).split()

_TAGS = ("record", "entry", "item", "node", "row", "field", "attr", "value", "meta")

_SOURCE_TOKENS = (
    "def", "return", "if", "else", "for", "while", "import", "class", "self",
    "int", "char", "void", "static", "const", "struct", "#include", "printf",
    "buffer", "offset", "length", "index", "size_t", "uint64_t", "->", "==",
)


#: Zipf-like weights: natural text uses a few words very often, which is
#: what gives prose its LZ4 compressibility.
_WORD_WEIGHTS = tuple(1.0 / rank for rank in range(1, len(_WORDS) + 1))


def _english_text(rng: random.Random, size: int) -> bytes:
    """Dickens/webster-like literary text: highly compressible prose."""
    pieces: list[str] = []
    total = 0
    sentence_len = 0
    while total < size:
        if pieces and len(pieces) > 8 and rng.random() < 0.25:
            # Prose repeats itself: re-quote a recent phrase.
            start = rng.randrange(max(1, len(pieces) - 64))
            phrase = pieces[start : start + rng.randint(3, 6)]
            pieces.extend(phrase)
            total += sum(len(w) + 1 for w in phrase)
            sentence_len += len(phrase)
        else:
            word = rng.choices(_WORDS, weights=_WORD_WEIGHTS)[0]
            if sentence_len == 0:
                word = word.capitalize()
            pieces.append(word)
            total += len(word) + 1
            sentence_len += 1
        if sentence_len > rng.randint(6, 14):
            pieces[-1] += "."
            sentence_len = 0
    return " ".join(pieces).encode("ascii")[:size]


def _xml_markup(rng: random.Random, size: int) -> bytes:
    """xml-like nested markup: tag structure dominates, so LZ4 gets ~5x."""
    pieces: list[str] = ['<?xml version="1.0"?>\n<root>\n']
    total = len(pieces[0])
    # Real markup reuses a handful of attribute values over and over.
    names = [rng.choice(_WORDS) for _ in range(6)]
    while total < size:
        tag = rng.choice(_TAGS)
        ident = rng.randint(0, 30)
        word = rng.choice(names)
        line = f'  <{tag} id="{ident}" name="{word}"><{tag}-value>{word}</{tag}-value></{tag}>\n'
        pieces.append(line)
        total += len(line)
    pieces.append("</root>\n")
    return "".join(pieces).encode("ascii")[:size]


def _database_table(rng: random.Random, size: int) -> bytes:
    """nci-like database dump: tiny value pools and repeated rows (~6-8x)."""
    words = [rng.choice(_WORDS) for _ in range(4)]
    recent: list[str] = []
    pieces: list[str] = []
    total = 0
    row_id = 0
    while total < size:
        if recent and rng.random() < 0.5:
            # Database dumps repeat near-identical records constantly.
            line = rng.choice(recent)
        else:
            row_id += 1
            line = (
                f"{row_id:08d}|{rng.choice(words):<12}|{rng.randint(0, 9):03d}|"
                f"{rng.choice('AB')}|0.{rng.randint(0, 9)}00000\n"
            )
            recent.append(line)
            if len(recent) > 12:
                recent.pop(0)
        pieces.append(line)
        total += len(line)
    return "".join(pieces).encode("ascii")[:size]


def _binary_executable(rng: random.Random, size: int) -> bytes:
    """mozilla/ooffice-like binary: repeated opcode motifs + literal pools."""
    out = bytearray()
    motifs = [bytes(rng.randrange(256) for _ in range(rng.randint(4, 16))) for _ in range(32)]
    while len(out) < size:
        if rng.random() < 0.7:
            out += rng.choice(motifs)
        else:
            out += bytes(rng.randrange(256) for _ in range(rng.randint(2, 24)))
    return bytes(out[:size])


def _medical_image(rng: random.Random, size: int) -> bytes:
    """x-ray-like 12-bit-ish sensor data: noisy, nearly incompressible."""
    out = bytearray()
    level = 2048
    while len(out) < size:
        level = max(0, min(4095, level + rng.randint(-64, 64)))
        sample = level + rng.randint(-31, 31)
        out += (sample & 0x0FFF).to_bytes(2, "little")
    return bytes(out[:size])


def _program_source(rng: random.Random, size: int) -> bytes:
    """samba/reymont-like program source: token soup with indentation."""
    pieces: list[str] = []
    total = 0
    while total < size:
        depth = rng.randint(0, 4)
        tokens = " ".join(rng.choice(_SOURCE_TOKENS) for _ in range(rng.randint(3, 9)))
        line = "    " * depth + tokens + ("\n" if rng.random() < 0.9 else " {\n")
        pieces.append(line)
        total += len(line)
    return "".join(pieces).encode("ascii")[:size]


def _random_noise(rng: random.Random, size: int) -> bytes:
    """Fully incompressible stream (worst case for the engines)."""
    return rng.randbytes(size)


#: (name, generator, weight in the corpus). Weights loosely follow the real
#: Silesia mix: mostly text/markup/database with a binary and medical tail.
_CLASSES: tuple[tuple[str, typing.Callable[[random.Random, int], bytes], int], ...] = (
    ("dickens", _english_text, 3),
    ("webster", _english_text, 2),
    ("xml", _xml_markup, 2),
    ("nci", _database_table, 3),
    ("sao", _database_table, 1),
    ("mozilla", _binary_executable, 3),
    ("ooffice", _binary_executable, 1),
    ("x-ray", _medical_image, 2),
    ("samba", _program_source, 2),
    ("reymont", _program_source, 1),
    ("noise", _random_noise, 1),
)


@dataclasses.dataclass(frozen=True)
class CorpusFile:
    """One generated corpus file."""

    name: str
    category: str
    data: bytes

    def __len__(self) -> int:
        return len(self.data)


class SilesiaLikeCorpus:
    """A deterministic, Silesia-shaped corpus of files.

    Parameters
    ----------
    seed:
        RNG seed; identical seeds generate identical corpora.
    file_size:
        Size of each generated file in bytes. The real corpus uses
        multi-megabyte files; the default keeps generation fast while
        preserving per-class compressibility.
    """

    def __init__(self, seed: int = 2023, file_size: int = 64 * 1024) -> None:
        if file_size < 1024:
            raise ValueError(f"file_size must be >= 1024 bytes, got {file_size}")
        self.seed = seed
        self.file_size = file_size
        self._files: list[CorpusFile] | None = None

    def files(self) -> list[CorpusFile]:
        """Generate (once) and return the corpus files."""
        if self._files is None:
            rng = random.Random(self.seed)
            generated = []
            for name, generator, weight in _CLASSES:
                for copy in range(weight):
                    data = generator(random.Random(rng.randrange(2**63)), self.file_size)
                    generated.append(CorpusFile(f"{name}-{copy}", name, data))
            self._files = generated
        return self._files

    @property
    def total_bytes(self) -> int:
        """Total corpus size in bytes."""
        return sum(len(f) for f in self.files())

    def blocks(self, block_size: int = 4096) -> list[bytes]:
        """Cut every file into `block_size` blocks (the paper's 4 KB I/O unit)."""
        if block_size < 16:
            raise ValueError(f"block_size must be >= 16, got {block_size}")
        out: list[bytes] = []
        for corpus_file in self.files():
            data = corpus_file.data
            for start in range(0, len(data) - block_size + 1, block_size):
                out.append(data[start : start + block_size])
        return out
