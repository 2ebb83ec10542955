"""Independent checks of the library's answers.

Nothing here calls ``a1weyl``: the checks read the attributes of the objects
the library returns and compare them with values computed from the
definitions.  Each check returns ``None`` when the answer is right, else a
one-line reason.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

Letters = list[tuple[int, tuple[int, ...]]]


def reflect_images(nu: int, letters: Letters) -> tuple[list, list]:
    """Images of ``e`` and of ``l_1..l_nu`` under the word, from the defining reflection.

    ``r_a(v) = v - (v, a) a`` with ``(v, a) = 2 v_e sign(a) + sum_j v_{l_j} p_j(a)``,
    applied letter by letter from the right.  ``r_a`` only adds multiples of
    ``a``, which has no ``l`` part, so every image keeps the ``l`` part it
    started with: 0 for ``e`` and ``l_j`` for ``l_j``.  Each image is stored
    as ``[v_e, v_s1, ..., v_snu]``.
    """
    images = [[1] + [0] * nu] + [[0] * (nu + 1) for _ in range(nu)]
    for sign, lat in reversed(letters):
        for j, v in enumerate(images):
            pairing = 2 * v[0] * sign + (lat[j - 1] if j else 0)
            if pairing:
                v[0] -= pairing * sign
                for i in range(nu):
                    v[1 + i] -= pairing * lat[i]
    return images


def canonical_form(nu: int, letters: Letters) -> dict:
    """(parity, shift, dual_sgn, dual_p) read off the images.

    ``w(e) = parity e - 2 sum shift_i s_i`` and
    ``w(l_j) = l_j - dual_sgn_j e - sum_i dual_p[j][i] s_i``.
    """
    img_e, *img_l = reflect_images(nu, letters)
    return {
        "parity": img_e[0],
        "shift": tuple(-c // 2 for c in img_e[1:]),
        "dual_sgn": tuple(-v[0] for v in img_l),
        "dual_p": tuple(tuple(-c for c in v[1:]) for v in img_l),
    }


def w_relation(ref: dict) -> bool:
    return ref["parity"] == 1 and not any(ref["shift"])


def check_element(ref: dict, w_elem, h_elem) -> str | None:
    if (w_elem.parity, w_elem.shift) != (ref["parity"], ref["shift"]):
        return f"W canonical form {(w_elem.parity, w_elem.shift)} != reference"
    got = (h_elem.parity, h_elem.shift, h_elem.dual_sgn, h_elem.dual_p)
    want = (ref["parity"], ref["shift"], ref["dual_sgn"], ref["dual_p"])
    if got != want:
        return "Wt canonical form differs from the reference"
    return None


def check_decide(inp: dict, ref: dict, out) -> str | None:
    word, w_elem, h_elem, central = out
    if [(a.sign, a.lat) for a in word.letters] != [(s, tuple(p)) for s, p in inp["letters"]]:
        return "parsed letters differ from the generated tokens"
    bad = check_element(ref, w_elem, h_elem)
    if bad:
        return bad
    if central != w_relation(ref):
        return f"is_central returned {central}"
    if inp["relation"] and not w_elem.is_identity:
        return "a word built as a relation did not decide relation: true in W"
    return None


def check_crosscheck(ref: dict, out) -> str | None:
    w_elem, h_elem, oracle_w, oracle_h = out
    if not (oracle_w and oracle_h):
        return f"matrix oracle disagreed (W {oracle_w}, Wt {oracle_h})"
    return check_element(ref, w_elem, h_elem)


# --- certificates ----------------------------------------------------------


def _is_relator(block: tuple[int, ...], nu: int) -> bool:
    """``g_k^2`` or ``(g_0 g_i g_j)^2`` with ``1 <= i < j <= nu``."""
    if len(block) == 2:
        return block[0] == block[1] and 0 <= block[0] <= nu
    if len(block) == 6:
        _, i, j = block[:3]
        return block[:3] == block[3:] and block[0] == 0 and 1 <= i < j <= nu
    return False


def replay_steps(start: tuple[int, ...], steps, nu: int) -> str | None:
    """Apply a certificate's steps by the presentation's rules; the word must end empty.

    Every rule is sound in ``W`` over the baby base: deleting or inserting a
    relator, and reversing any triple (``w_a w_b w_c`` is the reflection in
    ``a - b + c``, which is symmetric in ``a`` and ``c``).
    """
    word = list(start)
    for n, st in enumerate(steps):
        q, pay = st.pos, tuple(st.payload)
        if st.before_len != len(word) or not 0 <= q <= len(word):
            return f"step {n}: length or position does not chain"
        if st.rule == "cancel-involution":
            ok = len(pay) == 1 and tuple(word[q:q + 2]) == pay * 2 and _is_relator(pay * 2, nu)
            size = 2
        elif st.rule == "delete-relator":
            ok = tuple(word[q:q + len(pay)]) == pay and _is_relator(pay, nu)
            size = len(pay)
        elif st.rule == "triple-reverse":
            ok = len(pay) == 3 and tuple(word[q:q + 3]) == pay
            size = 0
        elif st.rule == "insert-relator":
            ok = _is_relator(pay, nu)
            size = -len(pay)
        else:
            return f"step {n}: unknown rule {st.rule!r}"
        if not ok:
            return f"step {n}: {st.rule} does not match the word at {q}"
        if size > 0:
            del word[q:q + size]
        elif size < 0:
            word[q:q] = pay
        else:
            word[q:q + 3] = pay[::-1]
        if st.after_len != len(word):
            return f"step {n}: after_len does not match"
    return None if not word else f"replay ends with {len(word)} letters, not the empty word"


def check_certify(inp: dict, out) -> str | None:
    cert, states = out
    indices = tuple(inp["indices"])
    if tuple(cert.start) != indices or not cert.final_empty:
        return "certificate does not start from the input or does not claim the empty word"
    if len(states) != len(cert.steps) + 1 or tuple(states[0]) != indices or states[-1]:
        return "library replay does not run from the input to the empty word"
    return replay_steps(indices, cert.steps, inp["nu"])


# --- loops -------------------------------------------------------------------


def _gen(nu: int, k: int) -> tuple[int, ...]:
    """Lattice part of the baby generator ``e + tau_k``."""
    return tuple(1 if i == k - 1 else 0 for i in range(nu))


def path_simplices(nu: int, indices, anchor, orient) -> list[tuple[tuple[int, ...], int]]:
    """Simplices visited from ``B(anchor, orient)``: ``w_a B(x, o) = B(x + o p(a), -o)``."""
    out = [(tuple(anchor), orient)]
    for k in reversed(indices):
        x, o = out[-1]
        out.append((tuple(c + o * g for c, g in zip(x, _gen(nu, k))), -o))
    return out


def _block(gens: tuple[int, ...], nu: int) -> tuple[int, ...] | None:
    block = (gens[0], gens[0]) if len(gens) == 1 else tuple(gens) * 2
    return block if _is_relator(block, nu) else None


def replay_moves(trace, nu: int) -> str | None:
    """Replay a loop trace with a suffix table; every sub-loop base must match.

    ``suf[q]`` is (parity, shift) of ``word[q:]``.  The base of a move is that
    suffix applied to the loop's base simplex, taken where the block is cut
    out.  An inserted or deleted block is the identity in ``W``, so only the
    block's own entries change.
    """
    word = list(trace.start)
    zero = (0,) * nu
    suf = [(1, zero)]
    for k in reversed(word):
        par, sh = suf[-1]
        suf.append((-par, tuple(s + par * g for s, g in zip(sh, _gen(nu, k)))))
    suf.reverse()
    x0, o0 = tuple(trace.base.anchor), trace.base.orient
    for n, mv in enumerate(trace.moves):
        block = _block(tuple(mv.gens), nu)
        if block is None or mv.kind not in ("insert", "delete"):
            return f"move {n}: {mv.kind} {mv.gens} is not an elementary move"
        q = mv.pos
        if mv.kind == "delete":
            if tuple(word[q:q + len(block)]) != block:
                return f"move {n}: block {block} absent at {q}"
            cut = q + len(block)
        else:
            if not 0 <= q <= len(word):
                return f"move {n}: insert position {q} out of range"
            cut = q
        par, sh = suf[cut]
        base = (tuple(x + o0 * s for x, s in zip(x0, sh)), par * o0)
        if (tuple(mv.base.anchor), mv.base.orient) != base:
            return f"move {n}: recorded sub-loop base {mv.base} != {base}"
        if mv.kind == "delete":
            del word[q:cut]
            del suf[q:cut]
        else:
            fresh = [suf[q]]
            for k in reversed(block):
                p, s = fresh[-1]
                fresh.append((-p, tuple(a + p * g for a, g in zip(s, _gen(nu, k)))))
            word[q:q] = block
            suf[q:q] = fresh[:0:-1]
    return None if not word else f"moves end with {len(word)} letters, not the empty loop"


def check_loops(inp: dict, out) -> str | None:
    path, trace, replayed, svg = out
    nu, indices = inp["nu"], tuple(inp["indices"])
    want = path_simplices(nu, indices, inp["anchor"], inp["orient"])
    if [(tuple(s.anchor), s.orient) for s in path.simplices] != want:
        return "path simplices differ from the reference action"
    if tuple(trace.start) != indices or trace.base != path.simplices[0]:
        return "trace does not start from the input loop"
    bad = replay_moves(trace, nu)
    if bad:
        return bad
    if len(replayed.word) or tuple(replayed.simplices) != (trace.base,):
        return "replay_trace does not reach the empty path at the original base"
    if nu == 2:
        try:
            root = ET.fromstring(svg)
        except ET.ParseError as exc:
            return f"SVG does not parse: {exc}"
        polygons = sum(1 for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "polygon")
        if polygons != len(set(want)):
            return f"SVG has {polygons} polygons for {len(set(want))} distinct simplices"
    return None
