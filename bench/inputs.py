"""Seeded workload inputs, generated without calling the library.

Every generator here is plain Python over tuples and strings, so a change to
``a1weyl`` cannot change what the benchmark feeds it.  Each workload draws
from its own stream, seeded by the workload name and ``--seed`` through
``random.Random(str)``, which digests the string with SHA-512: the words are
the same in every process, whatever ``PYTHONHASHSEED`` is.

A run times every input several times, once per pass.  Pass 0 runs the
inputs as generated; every later pass runs a variant of each input that is
the same problem under a symmetry of the group (a sign flip of explicit
roots, a relabelling of the generators, another base simplex), so the work
per input stays the same while calls do not repeat their arguments (only a
word too short to have an explicit root to flip can).

Decide and crosscheck inputs come in stratified rounds: a round fills every
(rank, length-stratum) cell once, and the seed only jitters a length inside
the middle fifth of its stratum, so every seed has the same size mix while
the words differ.  Certify and loops run their worst-case family
(palindromes, commutators) unchanged by the seed, then ``RANDOM_STRATA``
random relations over log-spaced length strata.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

WORKLOADS = ("decide", "crosscheck", "certify", "loops")

FAMILIES = ("baby", "toroidal", "pairwise")
WORD_NUS = (2, 4, 8)
SPREAD = 3  # explicit roots use coordinates tau + 2*d with |d| <= SPREAD

DECIDE_STRATA = 8  # per (family, nu): 24 length strata per rank, 72 words a round
CROSSCHECK_STRATA = 4  # 36 words a round
ROUNDS = {"decide": 3, "crosscheck": 3}  # 216 and 108 words
CERTIFY_NU = 4
PALINDROME_LENGTHS = (1000, 1400, 2000, 2800, 4000, 5600, 8000)
LOOP_RANDOM_NU = 3
LOOP_BLOCK = 8
CERTIFY_BLOCK = 32
COMMUTATOR_NS = (4, 5, 7, 10, 14, 20)
# Random relations after the worst-case family: at least 100 inputs, so the
# p90 latency has ten inputs beyond it, and more where a pass is cheap.
RANDOM_STRATA = {"certify": 200, "loops": 100}


def stream(seed: int, workload: str) -> random.Random:
    return random.Random(f"a1weyl-bench/{workload}/{seed}")


def cosets(family: str, nu: int) -> list[tuple[int, ...]]:
    """0/1 coset representatives of the semilattice family, as sets (order is ours)."""
    allowed = {"baby": 1, "pairwise": 2, "toroidal": nu}[family]
    return [t for t in itertools.product((0, 1), repeat=nu) if sum(t) <= allowed]


def _stratified(rng: random.Random, k: int, strata: int) -> float:
    """A point of stratum ``k`` of [0, 1), jittered inside its middle fifth."""
    return (k + 0.4 + 0.2 * rng.random()) / strata


def _log_length(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


def _value(rng: random.Random, reps: list[tuple[int, ...]]) -> tuple[int, ...]:
    """A normalized root lattice part: half the time a generator, else spread."""
    nu = len(reps[0])
    if rng.random() < 0.5:
        k = rng.randrange(nu + 1)
        return tuple(1 if i == k - 1 else 0 for i in range(nu))
    tau = rng.choice(reps)
    return tuple(t + 2 * rng.randint(-SPREAD, SPREAD) for t in tau)


def _token(rng: random.Random, v: tuple[int, ...]) -> tuple[str, int, tuple[int, ...]]:
    """Write the reflection in ``e + v`` as a ``g<k>`` token or as an explicit root.

    ``g<k>`` is used only for the zero and standard basis representatives,
    whose indices are fixed by the documented coset order; the explicit
    form flips the sign half the time (w_a = w_{-a}).
    """
    ones = [i for i, c in enumerate(v) if c != 0]
    if all(c in (0, 1) for c in v) and len(ones) <= 1 and rng.random() < 0.5:
        return (f"g{ones[0] + 1}" if ones else "g0"), 1, v
    sign = rng.choice((1, -1))
    lat = tuple(sign * c for c in v)
    return ("+" if sign > 0 else "-") + "e:" + ",".join(map(str, lat)), sign, lat


def _pair_up(rng: random.Random, half: list) -> list:
    """Interleave two shuffles of ``half``: the alternating sum then vanishes."""
    odd, even = list(half), list(half)
    rng.shuffle(odd)
    rng.shuffle(even)
    return [x for pair in zip(odd, even) for x in pair]


def text_word(rng: random.Random, family: str, nu: int, length: int, relation: bool) -> dict:
    reps = cosets(family, nu)
    if relation:
        values = _pair_up(rng, [_value(rng, reps) for _ in range(length // 2)])
    else:
        values = [_value(rng, reps) for _ in range(length)]
    tokens = [_token(rng, v) for v in values]
    return {
        "family": family,
        "nu": nu,
        "relation": relation,
        "text": " ".join(t for t, _, _ in tokens),
        "letters": [(sign, lat) for _, sign, lat in tokens],
    }


def _word_mix(rng: random.Random, strata: int, lo: int, hi: int, shift: int, flip: int) -> list[dict]:
    """Per rank, ``3*strata`` log-spaced length strata dealt round-robin to the families.

    Every other stratum is a relation, starting at ``flip``.
    """
    out = []
    for nu in WORD_NUS:
        for k in range(len(FAMILIES) * strata):
            family = FAMILIES[k % len(FAMILIES)]
            u = _stratified(rng, k, len(FAMILIES) * strata)
            length = _log_length(u, lo + shift, hi + shift) - shift
            out.append(text_word(rng, family, nu, length, relation=(k + flip) % 2 == 0))
    return out


def relation_indices(rng: random.Random, nu: int, length: int) -> tuple[int, ...]:
    """A relation word over the baby generators 0..nu of even ``length``."""
    return tuple(_pair_up(rng, [rng.randint(0, nu) for _ in range(length // 2)]))


def block_relation(rng: random.Random, nu: int, length: int, block: int) -> tuple[int, ...]:
    """Pair-up relations of ``block`` letters, concatenated to ``length``.

    The cost of reducing or rewriting a single pair-up relation varies about
    1.5x either way at a fixed length; a concatenation of short ones averages
    that out, so the cost follows the length and the seed barely moves it.
    """
    out: list[int] = []
    while len(out) < length - 1:
        out.extend(relation_indices(rng, nu, min(block, length - len(out))))
    return tuple(out)


def palindrome(length: int, phase: int) -> tuple[int, ...]:
    """``w + reverse(w)`` with ``w`` cycling g1..g4 from ``g(1+phase)``."""
    w = [1 + (phase + k) % CERTIFY_NU for k in range(length // 2)]
    return tuple(w + w[::-1])


def commutator(n: int) -> tuple[int, ...]:
    """The translation commutator (g0 g1)^n (g0 g2)^n (g1 g0)^n (g2 g0)^n at rank 2."""
    return (0, 1) * n + (0, 2) * n + (1, 0) * n + (2, 0) * n


def _base_simplex(rng: random.Random, nu: int) -> tuple[tuple[int, ...], int]:
    return tuple(rng.randint(-3, 3) for _ in range(nu)), rng.choice((1, -1))


def _word_rounds(workload: str, rng: random.Random) -> list[dict]:
    strata, lo, hi, shift = ((DECIDE_STRATA, 16, 4096, 0) if workload == "decide"
                             else (CROSSCHECK_STRATA, 0, 1024, 1))
    return [w for r in range(ROUNDS[workload]) for w in _word_mix(rng, strata, lo, hi, shift, r % 2)]


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The workload's inputs as generated: what pass 0 runs."""
    rng = stream(seed, workload)
    if workload in ("decide", "crosscheck"):
        return _word_rounds(workload, rng)
    if workload == "certify":
        phase = rng.randrange(CERTIFY_NU)
        out = [{"kind": "palindrome", "nu": CERTIFY_NU, "indices": palindrome(n, phase)}
               for n in PALINDROME_LENGTHS]
        for k in range(RANDOM_STRATA[workload]):
            length = _log_length(_stratified(rng, k, RANDOM_STRATA[workload]), 100, 1600)
            out.append({"kind": "random", "nu": CERTIFY_NU,
                        "indices": block_relation(rng, CERTIFY_NU, length, CERTIFY_BLOCK)})
        return out
    if workload == "loops":
        out = []
        for n in COMMUTATOR_NS:
            anchor, orient = _base_simplex(rng, 2)
            out.append({"kind": "commutator", "n": n, "nu": 2, "indices": commutator(n),
                        "anchor": anchor, "orient": orient})
        for k in range(RANDOM_STRATA[workload]):
            length = _log_length(_stratified(rng, k, RANDOM_STRATA[workload]), 40, 240)
            anchor, orient = _base_simplex(rng, LOOP_RANDOM_NU)
            out.append({"kind": "random", "nu": LOOP_RANDOM_NU,
                        "indices": block_relation(rng, LOOP_RANDOM_NU, length, LOOP_BLOCK),
                        "anchor": anchor, "orient": orient})
        return out
    raise ValueError(f"unknown workload {workload!r}")


def first_round(workload: str, inps: list[dict]) -> list[dict]:
    """One stratified round of decide or crosscheck; all of certify or loops."""
    if workload in ("decide", "crosscheck"):
        return inps[:len(inps) // ROUNDS[workload]]
    return inps


def _flip_signs(rng: random.Random, inp: dict) -> dict:
    """Flip each explicit root to its negative half the time: ``w_a = w_{-a}``."""
    tokens, letters = inp["text"].split(), []
    for i, (token, (sign, lat)) in enumerate(zip(tokens, inp["letters"])):
        if token[0] != "g" and rng.random() < 0.5:
            sign, lat = -sign, tuple(-c for c in lat)
            tokens[i] = ("+" if sign > 0 else "-") + "e:" + ",".join(map(str, lat))
        letters.append((sign, lat))
    return dict(inp, text=" ".join(tokens), letters=letters)


def _relabel(rng: random.Random, inp: dict, perm: tuple[int, ...], simplex: bool) -> dict:
    """Generators ``g1..g_nu`` renamed by ``perm`` (a symmetry of the baby base), ``g0`` kept."""
    out = dict(inp, indices=tuple(perm[k] for k in inp["indices"]))
    if simplex:
        out["anchor"], out["orient"] = _base_simplex(rng, inp["nu"])
    return out


def _perm(seed: int, workload: str, nu: int, k: int) -> tuple[int, ...]:
    """Pass ``k``'s renaming of ``g0..g_nu``: never the identity, and a new one while they last."""
    perms = list(itertools.permutations(range(1, nu + 1)))[1:]  # all but the identity
    stream(seed, f"{workload}/perms{nu}").shuffle(perms)
    return (0, *perms[(k - 1) % len(perms)])


def variant_inputs(workload: str, seed: int, k: int, inps: list[dict]) -> list[dict]:
    """Pass ``k``'s inputs: ``inps`` itself for ``k == 0``, else a seeded symmetric variant of each."""
    if k == 0:
        return inps
    rng = stream(seed, f"{workload}/pass{k}")
    if workload in ("decide", "crosscheck"):
        return [_flip_signs(rng, inp) for inp in inps]
    perms = {nu: _perm(seed, workload, nu, k) for nu in {inp["nu"] for inp in inps}}
    return [_relabel(rng, inp, perms[inp["nu"]], workload == "loops") for inp in inps]


def letters(inp: dict) -> int:
    return len(inp["letters"]) if "letters" in inp else len(inp["indices"])


def canon(inps: list[dict]) -> bytes:
    """Canonical JSON of one pass's inputs (the text form for words)."""
    return json.dumps([{k: v for k, v in inp.items() if k != "letters"} for inp in inps],
                      sort_keys=True, separators=(",", ":")).encode()


def digest(passes: list[list[dict]]) -> str:
    """sha256 over the canonical JSON of every pass's inputs."""
    h = hashlib.sha256()
    for inps in passes:
        h.update(canon(inps))
    return h.hexdigest()


def summary(inputs: list[dict]) -> dict:
    sizes = [letters(inp) for inp in inputs]
    nu_mix: dict[str, int] = {}
    kinds: dict[str, int] = {}
    for inp in inputs:
        nu_mix[str(inp["nu"])] = nu_mix.get(str(inp["nu"]), 0) + 1
        kind = inp.get("kind") or ("relation" if inp["relation"] else "random")
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "inputs": len(inputs),
        "letters_total": sum(sizes),
        "letters_min": min(sizes),
        "letters_median": sorted(sizes)[len(sizes) // 2],
        "letters_max": max(sizes),
        "nu_mix": nu_mix,
        "kinds": kinds,
    }
