"""Group presentations with exact normal forms and ball enumeration.

Three kinds are supported:

* ``free``: finite-rank free groups; normal form is the freely reduced word.
* ``free-product``: free products of finite cyclic groups; normal form is the
  alternating syllable word with each syllable written in its shortest power.
* ``small-cancellation``: one or more cyclically reduced relators satisfying
  the metric C'(1/6) condition; words are reduced with Dehn's algorithm and a
  bounded rewrite search supplies canonical geodesic representatives.

Words are tuples of symbol indices into an Alphabet that lists every letter,
inverses included, in a fixed total order (the shortlex order used for all
deterministic tie-breaking).
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import InputError, ResourceLimitError, UnsupportedElementError

Word = tuple  # tuple[int, ...], indices into an Alphabet

DEFAULT_ELEMENT_CAP = 2_000_000


class Alphabet:
    """Ordered symbol set with a fixed-point-allowed inverse involution."""

    __slots__ = ("symbols", "inverse", "_index")

    def __init__(self, symbols, inverse):
        self.symbols = tuple(symbols)
        self.inverse = tuple(inverse)
        if len(self.inverse) != len(self.symbols):
            raise InputError("involution must cover every symbol")
        for i, j in enumerate(self.inverse):
            if not 0 <= j < len(self.symbols) or self.inverse[j] != i:
                raise InputError("inverse map is not an involution")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("duplicate symbol names")
        self._index = {name: i for i, name in enumerate(self.symbols)}

    def __len__(self):
        return len(self.symbols)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown symbol {name!r}") from None

    @classmethod
    def from_generators(cls, names, self_inverse=()):
        """Build an alphabet listing each generator followed by its inverse.

        Generators named in ``self_inverse`` are their own inverse and get a
        single symbol; every other generator ``x`` also contributes ``x'``.
        """
        symbols, inverse = [], []
        for name in names:
            if "'" in name or " " in name or not name:
                raise InputError(f"bad generator name {name!r}")
            if name in self_inverse:
                inverse.append(len(symbols))
                symbols.append(name)
            else:
                i = len(symbols)
                symbols.extend((name, name + "'"))
                inverse.extend((i + 1, i))
        return cls(symbols, inverse)


def _spell(alphabet, word):
    return "".join(alphabet.symbols[i] for i in word) if word else "1"


def _free_reduce(inverse, word):
    out = []
    for s in word:
        if out and out[-1] == inverse[s]:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _invert_word(inverse, word):
    return tuple(inverse[s] for s in reversed(word))


def _shortlex_key(word):
    return (len(word), word)


class GroupPresentation:
    """A group model: alphabet, kind, and normal-form machinery.

    Instances are compared by identity; elements of distinct presentations
    never mix. Caches for canonical forms live on the presentation.
    """

    def __init__(self, alphabet, kind, relators=(), factor_orders=None, label=None):
        if kind not in ("free", "free-product", "small-cancellation"):
            raise InputError(f"unknown presentation kind {kind!r}")
        self.alphabet = alphabet
        self.kind = kind
        self.relators = tuple(tuple(r) for r in relators)
        self.label = label or kind
        # free-product data: factor id and exponent-in-factor per symbol.
        self._factor = None
        self._factor_orders = None
        self._sym_exponent = None
        if kind == "free-product":
            self._init_free_product(factor_orders)
        # small-cancellation data: all cyclic rotations of relators and their
        # inverses, plus the Dehn replacement threshold per rotation.
        self._rotations = None
        if kind == "small-cancellation":
            self._init_small_cancellation()
        self._canon_cache = {}
        self.identity = GroupElement(self, ())

    # -- construction -------------------------------------------------

    def _init_free_product(self, factor_orders):
        if not factor_orders:
            raise InputError("free-product kind needs factor orders")
        self._factor_orders = tuple(factor_orders)
        factor = [None] * len(self.alphabet.symbols)
        expo = [None] * len(self.alphabet.symbols)
        pos = 0
        for fid, order in enumerate(factor_orders):
            if order < 2:
                raise InputError("cyclic factor orders must be >= 2")
            take = 1 if order == 2 else 2
            for k in range(take):
                factor[pos + k] = fid
                expo[pos + k] = 1 if k == 0 else order - 1
            pos += take
        if pos != len(self.alphabet.symbols):
            raise InputError("alphabet does not match factor orders")
        self._factor = tuple(factor)
        self._sym_exponent = tuple(expo)

    def _init_small_cancellation(self):
        inv = self.alphabet.inverse
        if not self.relators:
            raise InputError("small-cancellation kind needs relators")
        rotations = []
        for r in self.relators:
            if _free_reduce(inv, r) != r or (len(r) > 1 and r[0] == inv[r[-1]]):
                raise InputError("relators must be cyclically reduced")
            if len(r) < 2:
                raise InputError("relators must have length >= 2")
            for w in (r, _invert_word(inv, r)):
                for i in range(len(w)):
                    rotations.append(w[i:] + w[:i])
        if len(set(rotations)) != len(rotations):
            raise InputError("relator set is degenerate (repeated rotation)")
        self._rotations = tuple(rotations)
        self._check_sixth()

    def _check_sixth(self):
        """Reject presentations whose pieces reach 1/6 of a relator length."""
        rots = self._rotations
        worst = 0
        max_piece = 0
        for u, v in itertools.permutations(rots, 2):
            if u == v:
                continue
            # longest common prefix of distinct rotations = piece candidate
            m = 0
            for a, b in zip(u, v):
                if a != b:
                    break
                m += 1
            worst = max(worst, Fraction(m, len(u)))
            max_piece = max(max_piece, m)
            if 6 * m >= len(u):
                raise InputError(
                    f"presentation is not C'(1/6): piece ratio {m}/{len(u)}"
                )
        self._piece_ratio = worst
        self._max_piece = max_piece
        self._min_relator = min(len(r) for r in rots)

    # -- normal forms ---------------------------------------------------

    def normalize(self, word):
        """Canonical word for the group element spelled by ``word``."""
        word = tuple(word)
        for s in word:
            if not 0 <= s < len(self.alphabet.symbols):
                raise InputError(f"symbol index {s} out of range")
        if self.kind == "free":
            return _free_reduce(self.alphabet.inverse, word)
        if self.kind == "free-product":
            return self._normalize_product(word)
        return self._canonical_sc(word)

    def _normalize_product(self, word):
        # stack of [factor, exponent mod order]
        stack = []
        for s in word:
            f, e = self._factor[s], self._sym_exponent[s]
            if stack and stack[-1][0] == f:
                stack[-1][1] = (stack[-1][1] + e) % self._factor_orders[f]
                if stack[-1][1] == 0:
                    stack.pop()
            else:
                stack.append([f, e])
        out = []
        sym_of = {}
        for i, (f, e) in enumerate(zip(self._factor, self._sym_exponent)):
            sym_of[(f, e)] = min(sym_of.get((f, e), i), i)
        for f, e in stack:
            n = self._factor_orders[f]
            # spell exponent e with the fewer of e plain or n-e primed letters;
            # ties go to the plain letter, which sorts first.
            if e <= n - e:
                out.extend([sym_of[(f, 1)]] * e)
            else:
                out.extend([sym_of[(f, n - 1)]] * (n - e))
        return tuple(out)

    def _sc_moves(self, word):
        """Words reachable in one move: free reduction, or replacement of a
        relator subword of at least half the relator by its complement."""
        inv = self.alphabet.inverse
        reduced = _free_reduce(inv, word)
        if reduced != word:
            yield reduced
            return
        n = len(word)
        for i in range(n):
            for rot in self._rotations:
                half = (len(rot) + 1) // 2
                m = 0
                limit = min(len(rot), n - i)
                while m < limit and word[i + m] == rot[m]:
                    m += 1
                for take in range(half, m + 1):
                    repl = _invert_word(inv, rot[take:])
                    yield _free_reduce(inv, word[:i] + repl + word[i + take :])

    def _canonical_sc(self, word):
        word = _free_reduce(self.alphabet.inverse, word)
        hit = self._canon_cache.get(word)
        if hit is not None:
            return hit
        seen = {word}
        frontier = [word]
        best = word
        while frontier:
            new = []
            for w in frontier:
                for w2 in self._sc_moves(w):
                    if w2 not in seen:
                        seen.add(w2)
                        new.append(w2)
                        if _shortlex_key(w2) < _shortlex_key(best):
                            best = w2
            frontier = new
        for w in seen:
            # every visited word spells the same element
            self._canon_cache.setdefault(w, best)
        return best

    def dehn_reduce(self, word):
        """Greedily replace relator subwords longer than half the relator
        until none remain; returns the Dehn-irreducible word."""
        inv = self.alphabet.inverse
        word = _free_reduce(inv, tuple(word))
        while word:
            shrunk = None
            n = len(word)
            for i in range(n):
                for rot in self._rotations:
                    m = 0
                    limit = min(len(rot), n - i)
                    while m < limit and word[i + m] == rot[m]:
                        m += 1
                    if 2 * m > len(rot):
                        repl = _invert_word(inv, rot[m:])
                        shrunk = _free_reduce(inv, word[:i] + repl + word[i + m :])
                        break
                if shrunk is not None:
                    break
            if shrunk is None:
                break
            word = shrunk
        return word

    def is_trivial(self, word):
        """Dehn's algorithm: the element is trivial iff greedy replacement
        of more-than-half relator subwords empties the word."""
        if self.kind != "small-cancellation":
            return self.normalize(word) == ()
        return self.dehn_reduce(word) == ()

    # -- element helpers ----------------------------------------------

    def element(self, spelling):
        """Parse a word like ``"aba'"`` or ``"a b a'"`` into an element."""
        return GroupElement(self, self.normalize(self.parse_word(spelling)))

    def parse_word(self, spelling):
        if isinstance(spelling, (tuple, list)):
            return tuple(spelling)
        text = spelling.strip()
        if text in ("", "1"):
            return ()
        word = []
        for tok in text.split():
            word.extend(self._scan_token(tok))
        return tuple(word)

    def _scan_token(self, tok):
        # greedy longest match against symbol names; extra apostrophes
        # after a match toggle the inverse, so s' works for self-inverse s
        index = self.alphabet._index
        inv = self.alphabet.inverse
        longest = max(len(s) for s in self.alphabet.symbols)
        out = []
        i = 0
        while i < len(tok):
            for size in range(min(longest, len(tok) - i), 0, -1):
                idx = index.get(tok[i : i + size])
                if idx is not None:
                    i += size
                    while i < len(tok) and tok[i] == "'":
                        idx = inv[idx]
                        i += 1
                    out.append(idx)
                    break
            else:
                raise InputError(f"unknown symbol at {tok[i:]!r}")
        return out

    def generators(self):
        seen = set()
        out = []
        for i, name in enumerate(self.alphabet.symbols):
            j = self.alphabet.inverse[i]
            if j not in seen:
                seen.add(i)
                out.append(GroupElement(self, self.normalize((i,))))
        return out

    def symmetric_generators(self):
        """Every generator and inverse as elements, in symbol order."""
        return [GroupElement(self, self.normalize((i,)))
                for i in range(len(self.alphabet.symbols))]

    def element_from_symbol(self, sym):
        return GroupElement(self, self.normalize((sym,)))

    @property
    def rank(self):
        """Number of generator/inverse symbol pairs (free kind only)."""
        if self.kind != "free":
            raise InputError("rank is defined for free presentations")
        return len(self.alphabet.symbols) // 2

    def __repr__(self):
        return f"GroupPresentation({self.label})"


class GroupElement:
    """Immutable group element carrying its canonical word."""

    __slots__ = ("pres", "word")

    def __init__(self, pres, word):
        self.pres = pres
        self.word = word

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.pres is not self.pres:
            raise InputError("elements live in different presentations")
        return GroupElement(self.pres, self.pres.normalize(self.word + other.word))

    def inverse(self):
        word = _invert_word(self.pres.alphabet.inverse, self.word)
        return GroupElement(self.pres, self.pres.normalize(word))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.pres.identity
        for _ in range(n):
            out = out * self
        return out

    def length(self):
        """Word length of the canonical representative."""
        return len(self.word)

    def is_identity(self):
        return not self.word

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.pres is other.pres and self.word == other.word

    def __hash__(self):
        return hash((id(self.pres), self.word))

    def __lt__(self, other):
        return _shortlex_key(self.word) < _shortlex_key(other.word)

    def spelled(self):
        return _spell(self.pres.alphabet, self.word)

    def __repr__(self):
        return f"<{self.spelled()}>"


def cyclically_reduce(g):
    """Split g = u c u^-1 with c cyclically reduced; returns (u, c).

    For free-product kinds, boundary syllables lying in the same cyclic factor
    are merged through conjugation until the word is cyclically canonical.
    """
    pres = g.pres
    inv = pres.alphabet.inverse
    word = g.word
    prefix = []
    if pres.kind == "free-product":
        while len(word) > 1 and pres._factor[word[0]] == pres._factor[word[-1]]:
            f0 = pres._factor[word[0]]
            if all(pres._factor[s] == f0 for s in word):
                break
            i = 1
            while pres._factor[word[i]] == f0:
                i += 1
            prefix.extend(word[:i])
            word = pres.normalize(word[i:] + word[:i])
    else:
        while True:
            while len(word) > 1 and word[0] == inv[word[-1]]:
                prefix.append(word[0])
                word = word[1:-1]
            if pres.kind == "small-cancellation":
                renorm = pres.normalize(word)
                if renorm != word:
                    word = renorm
                    continue
            break
    u = GroupElement(pres, pres.normalize(tuple(prefix)))
    c = GroupElement(pres, tuple(word))
    return u, c


class Ball:
    """Elements within a given word-metric radius, grouped by sphere."""

    __slots__ = ("pres", "radius", "spheres", "_index")

    def __init__(self, pres, radius, spheres):
        self.pres = pres
        self.radius = radius
        self.spheres = spheres
        self._index = {}
        for n, sol in enumerate(spheres):
            for g in sol:
                self._index[g.word] = n

    @property
    def elements(self):
        return [g for sol in self.spheres for g in sol]

    def sphere_sizes(self):
        return [len(s) for s in self.spheres]

    def __len__(self):
        return sum(len(s) for s in self.spheres)

    def __contains__(self, g):
        return g.word in self._index

    def word_length(self, g):
        """BFS distance from the identity; None when outside the ball."""
        return self._index.get(g.word)


def free_sphere_size(rank, n):
    if n == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (n - 1)


def enumerate_ball(pres, radius, max_elements=DEFAULT_ELEMENT_CAP):
    """Breadth-first ball enumeration with canonical-form deduplication."""
    if radius < 0:
        raise InputError("radius must be >= 0")
    if pres.kind == "free":
        total = sum(free_sphere_size(pres.rank, n) for n in range(radius + 1))
        if total > max_elements:
            raise ResourceLimitError(
                f"ball would hold {total} elements (cap {max_elements})"
            )
    spheres = [[pres.identity]]
    seen = {()}
    for _ in range(radius):
        layer = []
        for g in spheres[-1]:
            for s in range(len(pres.alphabet.symbols)):
                w = pres.normalize(g.word + (s,))
                if len(w) == len(g.word) + 1 and w not in seen:
                    seen.add(w)
                    layer.append(GroupElement(pres, w))
                    if len(seen) > max_elements:
                        raise ResourceLimitError(
                            f"ball exceeded the cap of {max_elements} elements"
                        )
        layer.sort(key=lambda e: e.word)
        spheres.append(layer)
    return Ball(pres, radius, spheres)


def enumerate_ball_pairwise(pres, radius, max_elements=20_000):
    """Ball enumeration deduplicating with is_trivial(g h^-1) only.

    Quadratic; used as an independent oracle for the canonical-form route.
    Returns the spheres as lists of freely reduced (not canonicalized) words.
    """
    inv = pres.alphabet.inverse
    spheres = [[()]]
    known = [()]
    for _ in range(radius):
        layer = []
        for w in spheres[-1]:
            for s in range(len(pres.alphabet.symbols)):
                cand = _free_reduce(inv, w + (s,))
                dup = False
                for v in itertools.chain(known, layer):
                    if pres.is_trivial(cand + _invert_word(inv, v)):
                        dup = True
                        break
                if not dup:
                    layer.append(cand)
                    if len(known) + len(layer) > max_elements:
                        raise ResourceLimitError("pairwise ball cap exceeded")
        known.extend(layer)
        spheres.append(layer)
    return spheres


def bulk_product_lengths(pres, lefts, rights):
    """Matrix of canonical lengths |l^-1 r| over two element lists.

    This is the single route from canonical words to word-metric
    distances: `metrics.word_distance_matrix` and the Busemann rows of
    `cocycles` both go through it.

    Free kinds reduce l^-1 r by cancelling the common prefix of l and r,
    so only padded-array comparisons are needed.  Small-cancellation kinds
    additionally need Dehn reduction; when every piece has length 1 and
    every raw product is shorter than the relator, a Dehn-irreducible word
    is geodesic, so relator-segment matches are detected vectorized and
    the few matching rows are finished by the scalar dehn_reduce.  Free
    products and the remaining small-cancellation cases fall back to one
    normalize call per pair.
    """
    nl, nr = len(lefts), len(rights)
    if nl == 0 or nr == 0:
        return np.zeros((nl, nr), dtype=np.int64)
    if pres.kind != "free-product":
        lens = _vectorized_lengths(pres, lefts, rights)
        if lens is not None:
            return lens
    out = np.empty((nl, nr), dtype=np.int64)
    for i, l in enumerate(lefts):
        li = l.inverse()
        for j, r in enumerate(rights):
            out[i, j] = (li * r).length()
    return out


def _vectorized_lengths(pres, lefts, rights):
    """Vectorized |l^-1 r| for free and fast small-cancellation cases;
    None when the scalar route is needed."""
    nl, nr = len(lefts), len(rights)
    # symbols and the -1 padding share the smallest signed type that holds
    # every index, so alphabets past 128 symbols widen instead of overflow
    sym = np.min_scalar_type(-len(pres.alphabet.symbols))
    lv = np.array([len(l.word) for l in lefts], dtype=np.int64)
    lx = np.array([len(r.word) for r in rights], dtype=np.int64)
    wl = max(1, int(lv.max()))
    wr = max(1, int(lx.max()))
    a = np.full((nl, wl), -1, dtype=sym)   # left words as spelled
    for i, l in enumerate(lefts):
        if l.word:
            a[i, : len(l.word)] = l.word
    b = np.full((nr, wr), -1, dtype=sym)
    for j, r in enumerate(rights):
        if r.word:
            b[j, : len(r.word)] = r.word
    # cancellation at the l^-1 | r junction = common prefix of l and r
    width = min(wl, wr)
    eq = (a[:, None, :width] == b[None, :, :width]) & (a[:, None, :width] >= 0)
    lcp = eq.astype(np.int8).cumprod(axis=2).sum(axis=2, dtype=np.int64)
    lens = lv[:, None] + lx[None, :] - 2 * lcp
    if pres.kind == "free":
        return lens
    if pres._max_piece != 1 or int(lens.max()) >= pres._min_relator:
        return None

    # assemble the reduced words of l^-1 r in one padded array
    inv = pres.alphabet.inverse
    ia = np.full((nl, wl), -1, dtype=sym)   # inverse words of lefts
    for i, l in enumerate(lefts):
        if l.word:
            ia[i, : len(l.word)] = [inv[s] for s in reversed(l.word)]
    w = wl + wr
    t = np.arange(w)[None, None, :]
    keep = (lv[:, None] - lcp)[:, :, None]      # letters kept from l^-1
    total = lens[:, :, None]
    bidx = np.clip(t - keep + lcp[:, :, None], 0, wr - 1)
    bvals = np.take_along_axis(
        np.broadcast_to(b[None], (nl, nr, wr)), bidx.astype(np.int64), axis=2
    )
    avals = np.concatenate(
        [ia, np.full((nl, wr), -1, dtype=sym)], axis=1
    )[:, None, :]
    words = np.where(t < keep, avals, np.where(t < total, bvals, sym.type(-1)))
    flat = words.reshape(nl * nr, w)

    # vectorized detection of more-than-half relator segments
    hits = set()
    for rot in pres._rotations:
        half = len(rot) // 2 + 1
        for m in range(half, min(len(rot), w) + 1):
            seg = np.array(rot[:m], dtype=sym)
            for i in range(w - m + 1):
                rows = np.nonzero((flat[:, i : i + m] == seg).all(axis=1))[0]
                hits.update(rows.tolist())
    final = lens.reshape(-1)
    for row in hits:
        word = tuple(int(s) for s in flat[row] if s >= 0)
        final[row] = len(pres.dehn_reduce(word))
    return final.reshape(nl, nr)


# -- presets and presentation files ------------------------------------


def free_group(rank, label=None):
    if rank < 1:
        raise InputError("free rank must be >= 1")
    names = [chr(ord("a") + i) for i in range(rank)] if rank <= 26 else [
        f"x{i}" for i in range(rank)
    ]
    alph = Alphabet.from_generators(names)
    return GroupPresentation(alph, "free", label=label or f"free:{rank}")


def cyclic_free_product(orders, names=None, label=None):
    """Free product of finite cyclic groups of the given orders."""
    if len(orders) < 2:
        raise InputError("need at least two cyclic factors")
    if names is None:
        names = [chr(ord("s") + i) for i in range(len(orders))]
    self_inv = {n for n, o in zip(names, orders) if o == 2}
    alph = Alphabet.from_generators(names, self_inverse=self_inv)
    return GroupPresentation(
        alph, "free-product", factor_orders=orders, label=label or "free-product"
    )


def small_cancellation_group(generator_names, relator_spellings, label=None):
    alph = Alphabet.from_generators(generator_names)
    probe = GroupPresentation(alph, "free")
    relators = [probe.parse_word(r) for r in relator_spellings]
    return GroupPresentation(
        alph, "small-cancellation", relators=relators, label=label
    )


def surface_group(genus=2):
    """Genus-g orientable surface group, one relator of length 4g."""
    if genus < 2:
        raise InputError("surface presets need genus >= 2")
    names = [chr(ord("a") + i) for i in range(2 * genus)]
    rel = ""
    for i in range(0, 2 * genus, 2):
        x, y = names[i], names[i + 1]
        rel += f"{x}{y}{x}'{y}'"
    return small_cancellation_group(names, [rel], label=f"surface:{genus}")


def modular_group():
    """Free product Z/2 * Z/3 with generators s, t."""
    return cyclic_free_product([2, 3], names=["s", "t"], label="modular")


def preset(spec):
    """Resolve a group spec string: free:k, surface:2, modular, or a file path."""
    spec = spec.strip()
    if spec.startswith("free:"):
        try:
            rank = int(spec.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad free rank in {spec!r}") from None
        return free_group(rank)
    if spec.startswith("surface:"):
        try:
            genus = int(spec.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad surface genus in {spec!r}") from None
        return surface_group(genus)
    if spec == "modular":
        return modular_group()
    if spec.startswith("@") or "/" in spec or spec.endswith(".txt"):
        return load_presentation(spec.lstrip("@"))
    raise InputError(f"unknown group spec {spec!r}")


def parse_presentation(text, label=None):
    """Parse the plain-text format: a ``generators:`` line, then one relator
    per line, with inverses written with a trailing apostrophe."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("generators:"):
        raise InputError("presentation file must start with a generators: line")
    names = lines[0].split(":", 1)[1].split()
    if not names:
        raise InputError("empty generator list")
    relators = lines[1:]
    if not relators:
        alph = Alphabet.from_generators(names)
        return GroupPresentation(alph, "free", label=label or "free(file)")
    return small_cancellation_group(names, relators, label=label or "file")


def load_presentation(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read presentation file {path}: {exc}") from exc
    return parse_presentation(text, label=path)
