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

import collections
import functools
import itertools
from fractions import Fraction

import numpy as np

from .errors import InputError, ResourceLimitError, UnsupportedElementError

Word = tuple  # tuple[int, ...], indices into an Alphabet

# largest ball enumerate_ball builds, and the quadratic oracle's smaller one
ELEMENT_CAP = 2_000_000
PAIRWISE_ELEMENT_CAP = 20_000
# largest estimated allocation of one bulk_product_lengths call
DISTANCE_BYTES_CAP = 2 << 30
# bytes a pair that bulk_product_lengths allocates at its peak, by kind;
# each bounds its route's tracemalloc peak: 24.0 on the free prefix route,
# up to 37 on the free-product scalar route (modular radius 12, first
# call) and 51 on the small-cancellation letter walk (surface:2, surface:3)
PAIR_BYTES = {"free": 32, "free-product": 48, "small-cancellation": 64}


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


def common_prefix_len(u, w):
    """Number of leading letters two words share."""
    n = 0
    for a, b in zip(u, w):
        if a != b:
            break
        n += 1
    return n


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
        self._sym_of = None
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
        # first symbol spelling each (factor, exponent), for normal forms
        self._sym_of = {}
        for i, key in enumerate(zip(factor, expo)):
            self._sym_of.setdefault(key, i)

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
        # a relator match starting at a letter needs a rotation starting
        # with it; buckets keep the order of _rotations
        self._rotations_by_first = tuple(
            tuple(rot for rot in rotations if rot[0] == s)
            for s in range(len(self.alphabet)))

    def _check_sixth(self):
        """Reject presentations whose pieces reach 1/6 of a relator length."""
        rots = self._rotations
        worst = 0
        max_piece = 0
        for u, v in itertools.permutations(rots, 2):
            if u == v:
                continue
            # longest common prefix of distinct rotations = piece candidate
            m = common_prefix_len(u, v)
            worst = max(worst, Fraction(m, len(u)))
            max_piece = max(max_piece, m)
            if 6 * m >= len(u):
                raise InputError(
                    f"presentation is not C'(1/6): piece ratio {m}/{len(u)}"
                )
        self._piece_ratio = worst
        self._max_piece = max_piece
        self._min_relator = min(len(r) for r in rots)

    @functools.cached_property
    def _relator_windows(self):
        """Prefix-transition table that finds relator subwords longer than
        half the relator (Aho-Corasick, CACM 1975).

        Its states are the prefixes of the len(rot)//2 + 1 letter prefixes
        of all rotations; `table[q, s]` is the state after symbol s, the
        last column sending the -1 padding to the start state 0.  The
        states that end one of those prefixes accept and absorb.  A subword
        longer than half a relator begins with such a prefix, so a word
        holds one exactly when its walk ends accepting.  No prefix lies
        inside another state's word, for it would make a piece of more
        than half a relator, so a walk that reads one is in its end state.
        Returns (table, accept).
        """
        children, ends = [{}], [False]
        for rot in self._rotations:
            q = 0
            for s in rot[: len(rot) // 2 + 1]:
                if s not in children[q]:
                    children[q][s] = len(children)
                    children.append({})
                    ends.append(False)
                q = children[q][s]
            ends[q] = True
        table = np.zeros((len(children), len(self.alphabet) + 1),
                         dtype=np.min_scalar_type(len(children)))
        accept = np.array(ends)
        fail = [0] * len(children)
        # breadth first: a failure link points to a shallower, finished state
        queue = collections.deque([0])
        while queue:
            q = queue.popleft()
            table[q] = table[fail[q]]
            for s, child in children[q].items():
                fail[child] = table[q, s]
                table[q, s] = child
                queue.append(child)
        hit = np.flatnonzero(accept)
        table[hit] = hit[:, None]
        return table, accept

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
        for f, e in stack:
            out.extend(self._syllable(f, e))
        return tuple(out)

    def _syllable(self, f, e):
        """Canonical spelling of exponent e in factor f: the fewer of e plain
        or n-e primed letters; ties go to the plain letter, which sorts
        first."""
        n = self._factor_orders[f]
        if e <= n - e:
            return (self._sym_of[(f, 1)],) * e
        return (self._sym_of[(f, n - 1)],) * (n - e)

    def multiply(self, u, w):
        """Canonical word of uw for canonical words u and w.

        The one rule for products; a single letter is a canonical word of
        the free and free-product kinds.  Both words are reduced, so free
        kinds cancel letters only where u meets w.  Free-product kinds
        cancel whole syllables at the junction and merge the two that
        meet in one factor.  Dehn forms need the whole word, so
        small-cancellation kinds normalize the concatenation (the
        canonical-form cache serves repeats).
        """
        if self.kind == "free":
            inv = self.alphabet.inverse
            i, j = len(u), 0
            while i and j < len(w) and u[i - 1] == inv[w[j]]:
                i, j = i - 1, j + 1
            return u[:i] + w[j:]
        if self.kind == "free-product":
            factor, expo = self._factor, self._sym_exponent
            i, j = len(u), 0
            while i and j < len(w) and factor[u[i - 1]] == factor[w[j]]:
                # a syllable is a run of one letter; neighbours differ in
                # factor
                a, b = i - 1, j + 1
                while a and u[a - 1] == u[i - 1]:
                    a -= 1
                while b < len(w) and w[b] == w[j]:
                    b += 1
                f = factor[w[j]]
                e = ((i - a) * expo[u[i - 1]]
                     + (b - j) * expo[w[j]]) % self._factor_orders[f]
                if e:
                    return u[:a] + self._syllable(f, e) + w[b:]
                i, j = a, b
            return u[:i] + w[j:]
        return self.normalize(u + w)

    def invert(self, u):
        """Canonical word of u^-1 for a canonical word u."""
        word = _invert_word(self.alphabet.inverse, u)
        # the inverse of a reduced word is reduced; other kinds respell
        # ties such as Z/4's tt, whose inverse t't' is not canonical
        if self.kind == "free":
            return word
        return self.normalize(word)

    def left_quotient(self, u, w):
        """Canonical word of u^-1 w for canonical words u and w.

        The one scalar route for x^-1 y.  In a free group only the common
        prefix of u and w cancels, leaving |u| + |w| - 2 lcp letters, as
        `bulk_product_lengths` computes in bulk.
        """
        return self.multiply(self.invert(u), w) if u else w

    def _relator_matches(self, word):
        """(i, rot, m) for each position i of word and each rotation rot
        starting with word[i], where rot's first m letters match word from
        i on; positions ascend and rotations keep their `_rotations`
        order (Dehn's algorithm, Lyndon-Schupp ch. V)."""
        n = len(word)
        for i, s in enumerate(word):
            for rot in self._rotations_by_first[s]:
                m = 1
                limit = min(len(rot), n - i)
                while m < limit and word[i + m] == rot[m]:
                    m += 1
                yield i, rot, m

    def _sc_moves(self, word):
        """Words reachable in one move: free reduction, or replacement of a
        relator subword of at least half the relator by its complement."""
        inv = self.alphabet.inverse
        reduced = _free_reduce(inv, word)
        if reduced != word:
            yield reduced
            return
        for i, rot, m in self._relator_matches(word):
            for take in range((len(rot) + 1) // 2, m + 1):
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
            for i, rot, m in self._relator_matches(word):
                if 2 * m > len(rot):
                    repl = _invert_word(inv, rot[m:])
                    word = _free_reduce(inv, word[:i] + repl + word[i + m :])
                    break
            else:
                break
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
                out.append(self.element_from_symbol(i))
        return out

    def symmetric_generators(self):
        """Every generator and inverse as elements, in symbol order."""
        return [self.element_from_symbol(i)
                for i in range(len(self.alphabet.symbols))]

    def symmetry_generators(self):
        """Alphabet permutations, as tuples of symbol indices, that extend
        to length-preserving automorphisms.

        One swaps each generator with its inverse.  One swaps each pair of
        consecutive generators of the same type, and their inverses: every
        free generator has one type, a free-product generator's type is
        its factor order.  Small-cancellation kinds get none, since their
        symmetries must also keep the relator set.
        """
        if self.kind == "small-cancellation":
            return []
        inv = self.alphabet.inverse
        gens = [s for s in range(len(inv)) if s <= inv[s]]

        def swap(*pairs):
            perm = list(range(len(inv)))
            for a, b in pairs:
                perm[a], perm[b] = b, a
            return tuple(perm)

        out = [swap((s, inv[s])) for s in gens if inv[s] != s]
        by_type = {}
        for s in gens:
            key = self._factor_orders[self._factor[s]] if self._factor else 0
            by_type.setdefault(key, []).append(s)
        for same in by_type.values():
            out.extend(swap((x, y), (inv[x], inv[y]))
                       for x, y in zip(same, same[1:]))
        return out

    def element_from_symbol(self, sym):
        if not 0 <= sym < len(self.alphabet.symbols):
            raise InputError(f"symbol index {sym} out of range")
        return GroupElement(self, self.multiply((), (sym,)))

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
        return GroupElement(self.pres,
                            self.pres.multiply(self.word, other.word))

    def inverse(self):
        return GroupElement(self.pres, self.pres.invert(self.word))

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
    """Split a free-group element g = u c u^-1 with c cyclically reduced;
    returns (u, c)."""
    pres = g.pres
    if pres.kind != "free":
        raise UnsupportedElementError(
            f"cyclic reduction needs a free presentation, got {pres.kind!r}")
    inv = pres.alphabet.inverse
    word = g.word
    prefix = []
    while len(word) > 1 and word[0] == inv[word[-1]]:
        prefix.append(word[0])
        word = word[1:-1]
    u = GroupElement(pres, pres.normalize(tuple(prefix)))
    c = GroupElement(pres, tuple(word))
    return u, c


class Ball:
    """Elements within a given word-metric radius, grouped by sphere.

    The one holder of what derives from the ball: its `elements` in sphere
    order, their `index` (word -> position) and word `lengths`, and the
    word `distances`, filled in by `metrics.word_distance_matrix`.
    """

    __slots__ = ("pres", "radius", "spheres", "elements", "index", "lengths",
                 "distances")

    def __init__(self, pres, radius, spheres):
        self.pres = pres
        self.radius = radius
        self.spheres = spheres
        self.elements = [g for sol in spheres for g in sol]
        self.index = {g.word: i for i, g in enumerate(self.elements)}
        self.lengths = np.array([len(g.word) for g in self.elements],
                                dtype=np.int64)
        self.distances = None

    def sphere_sizes(self):
        return [len(s) for s in self.spheres]

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g.word in self.index


def free_sphere_size(rank, n):
    if n == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (n - 1)


def enumerate_ball(pres, radius):
    """Breadth-first ball enumeration with canonical-form deduplication."""
    if radius < 0:
        raise InputError("radius must be >= 0")
    if pres.kind == "free":
        total = sum(free_sphere_size(pres.rank, n) for n in range(radius + 1))
        if total > ELEMENT_CAP:
            raise ResourceLimitError(
                f"ball would hold {total} elements (cap {ELEMENT_CAP})"
            )
    spheres = [[pres.identity]]
    seen = {()}
    for _ in range(radius):
        layer = []
        for g in spheres[-1]:
            for s in range(len(pres.alphabet.symbols)):
                w = pres.multiply(g.word, (s,))
                if len(w) == len(g.word) + 1 and w not in seen:
                    seen.add(w)
                    layer.append(GroupElement(pres, w))
                    if len(seen) > ELEMENT_CAP:
                        raise ResourceLimitError(
                            f"ball exceeded the cap of {ELEMENT_CAP} elements"
                        )
        layer.sort(key=lambda e: e.word)
        spheres.append(layer)
    return Ball(pres, radius, spheres)


def enumerate_ball_pairwise(pres, radius):
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
                    if len(known) + len(layer) > PAIRWISE_ELEMENT_CAP:
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
    so only prefix comparisons are needed.  Small-cancellation kinds
    additionally need Dehn reduction; when every piece has length 1 and
    every raw product is shorter than the relator, a Dehn-irreducible word
    is geodesic, so one pass of a prefix-transition table over all
    products at once finds those holding more than half a relator, and
    the scalar dehn_reduce finishes just these.  Free
    products and the remaining small-cancellation cases fall back to one
    `left_quotient` call per pair, or per unordered pair when `lefts` and
    `rights` are one list.  A call whose estimated allocation passes
    `DISTANCE_BYTES_CAP` raises ResourceLimitError before allocating.
    """
    nl, nr = len(lefts), len(rights)
    if nl == 0 or nr == 0:
        return np.zeros((nl, nr), dtype=np.int64)
    need = nl * nr * PAIR_BYTES[pres.kind]
    if need > DISTANCE_BYTES_CAP:
        raise ResourceLimitError(
            f"word distances over {nl} x {nr} elements would allocate about "
            f"{need / 2**30:.1f} GiB (cap {DISTANCE_BYTES_CAP / 2**30:g} GiB)")
    if pres.kind != "free-product":
        lens = _vectorized_lengths(pres, lefts, rights)
        if lens is not None:
            return lens
    # |l^-1 r| = |r^-1 l|, so a square call fills j >= i and mirrors
    square = lefts is rights
    out = np.empty((nl, nr), dtype=np.int64)
    for i, l in enumerate(lefts):
        for j in range(i if square else 0, nr):
            out[i, j] = len(pres.left_quotient(l.word, rights[j].word))
    if square:
        out = np.triu(out) + np.triu(out, 1).T
    return out


def _common_prefix_lengths(lefts, rights, width):
    """Common prefix lengths, capped at width, of every left and right
    word as an nl x nr int64 array.

    Equal prefixes share one id, so two words agree on their first k
    letters exactly when their k-letter prefix ids match, and then on
    every shorter prefix too: the common prefix length counts the depths
    whose ids match.
    """
    ids = {}

    def prefix_ids(elements, pad):
        out = np.full((width, len(elements)), pad, dtype=np.int64)
        for j, g in enumerate(elements):
            w = g.word
            for k in range(min(len(w), width)):
                out[k, j] = ids.setdefault(w[: k + 1], len(ids))
        return out

    pl = prefix_ids(lefts, -1)
    pr = prefix_ids(rights, -2)    # pads never match each other
    lcp = np.zeros((len(lefts), len(rights)), dtype=np.min_scalar_type(width))
    for k in range(width):
        lcp += pl[k][:, None] == pr[k][None, :]
    return lcp.astype(np.int64)


def _vectorized_lengths(pres, lefts, rights):
    """Vectorized |l^-1 r| for free and fast small-cancellation cases;
    None when the scalar route is needed.

    The fast small-cancellation case walks `_relator_windows` over the
    letters of every reduced l^-1 r at once, one letter a step, without
    building the words; only words whose walk ends accepting hold a
    subword longer than half a relator, and those go to dehn_reduce.
    """
    nl, nr = len(lefts), len(rights)
    lv = np.array([len(l.word) for l in lefts], dtype=np.int64)
    lx = np.array([len(r.word) for r in rights], dtype=np.int64)
    wl = max(1, int(lv.max()))
    wr = max(1, int(lx.max()))
    # cancellation at the l^-1 | r junction = common prefix of l and r
    lcp = _common_prefix_lengths(lefts, rights, min(wl, wr))
    lens = lv[:, None] + lx[None, :] - 2 * lcp
    if pres.kind == "free":
        return lens
    if pres._max_piece != 1 or int(lens.max()) >= pres._min_relator:
        return None

    # symbols and the -1 padding share the smallest signed type that holds
    # every index, so alphabets past 128 symbols widen instead of overflow
    sym = np.min_scalar_type(-len(pres.alphabet.symbols))
    b = np.full((nr, wr), -1, dtype=sym)   # right words as spelled
    for j, r in enumerate(rights):
        if r.word:
            b[j, : len(r.word)] = r.word
    inv = pres.alphabet.inverse
    last = int(lens.max())
    # inverse words of lefts, padded so that every step reads a column
    ia = np.full((nl, max(wl, last)), -1, dtype=sym)
    for i, l in enumerate(lefts):
        if l.word:
            ia[i, : len(l.word)] = [inv[s] for s in reversed(l.word)]
    # letter t of the reduced word l^-1 r: l^-1 gives the first |l| - lcp,
    # r its letters past the common prefix, then -1 pads
    keep = lv[:, None] - lcp
    shift = lcp - keep          # letter t >= keep is r's letter t + shift
    cols = np.arange(nr)[None, :]
    # one walk of the relator-window table over all words at once; the -1
    # padding indexes the table's last column
    table, accept = pres._relator_windows
    state = np.zeros((nl, nr), dtype=table.dtype)
    for t in range(last):
        from_r = b[cols, np.clip(t + shift, 0, wr - 1)]
        letter = np.where(t < keep, ia[:, t, None],
                          np.where(t < lens, from_r, sym.type(-1)))
        state = table[state, letter]
    # the few words holding a relator window finish by Dehn reduction
    for i, j in np.argwhere(accept[state]).tolist():
        c = int(lcp[i, j])
        word = _invert_word(inv, lefts[i].word[c:]) + rights[j].word[c:]
        lens[i, j] = len(pres.dehn_reduce(word))
    return lens


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
