"""Construction, deformation and serialization of matrix representations.

A Representation is an ordered list of SL(d, R) generators for the free
group F_k together with symbol labels.  The example builders cover the
desk-scale zoo: Schottky pairs in SL(2, R), their symmetric-power images
in SL(d, R) (the irreducible embedding SL(2) -> SL(d)) and seeded
uniform perturbations.

Whether Schottky parameters actually generate a free, discrete group is
the caller's responsibility; nothing here runs a ping-pong argument.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, PerturbationFailedError

__all__ = [
    "Representation",
    "make_schottky",
    "sym_power_embed",
    "perturb",
    "save_rep",
    "load_rep",
    "loads_rep",
]

_DET_TOL = 1e-9
_DEFAULT_LABELS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Representation:
    """Generators of a finitely generated subgroup of SL(d, R).

    Immutable and hashable (by entry bytes), so derived spectral data can
    be memoised per representation.  ``letter_matrices`` follows the
    letter encoding of limcone.words: generator i at index 2i, its
    inverse at 2i + 1.
    """

    dim: int
    generators: np.ndarray          # (k, d, d), read-only
    labels: tuple

    def __post_init__(self):
        gens = np.ascontiguousarray(np.asarray(self.generators, dtype=float))
        if gens.ndim != 3 or gens.shape[1] != self.dim or gens.shape[2] != self.dim:
            raise InvalidParameterError("generators must be a (k, d, d) stack")
        if self.dim < 2:
            raise InvalidParameterError("need dimension d >= 2")
        if gens.shape[0] < 2:
            raise InvalidParameterError("need k >= 2 generators")
        if not np.isfinite(gens).all():
            raise InvalidParameterError("generator entries must be finite")
        dets = np.linalg.det(gens)
        if np.abs(dets - 1.0).max() >= _DET_TOL:
            raise InvalidParameterError(
                f"generators must have determinant 1 (max deviation {np.abs(dets - 1).max():.2e})"
            )
        labels = tuple(self.labels)
        if (len(labels) != gens.shape[0] or len(set(labels)) != len(labels)
                or not all(isinstance(lab, str) for lab in labels)):
            raise InvalidParameterError("labels must be distinct strings, one per generator")
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "labels", labels)

    @property
    def num_generators(self) -> int:
        return self.generators.shape[0]

    def letter_matrices(self) -> np.ndarray:
        """(2k, d, d) stack: generator i at 2i, its inverse at 2i + 1."""
        k, d = self.num_generators, self.dim
        out = np.empty((2 * k, d, d))
        out[0::2] = self.generators
        out[1::2] = np.linalg.inv(self.generators)
        out.setflags(write=False)
        return out

    def __hash__(self):
        return hash((self.dim, self.labels, self.generators.tobytes()))

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.labels == other.labels
            and self.generators.tobytes() == other.generators.tobytes()
        )


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def make_schottky(translation_lengths, axis_angles) -> Representation:
    """Hyperbolic SL(2, R) generators with prescribed translation lengths
    and axis directions.

    Generator i is conjugate to diag(e^(l/2), e^(-l/2)) with its axis
    rotated by axis_angles[i]; rotating the axis by theta means
    conjugating by the elliptic rotation of angle theta / 2, so axes
    coincide exactly when angles agree mod pi.  The generators are
    labelled a, b, c, ... in order.
    """
    lengths = [float(x) for x in translation_lengths]
    angles = [float(x) for x in axis_angles]
    k = len(lengths)
    if k < 2 or len(angles) != k:
        raise InvalidParameterError("need k >= 2 matching lengths and angles")
    if min(lengths) <= 0:
        raise InvalidParameterError("translation lengths must be positive")
    for i in range(k):
        for j in range(i + 1, k):
            if abs((angles[i] - angles[j] + np.pi / 2) % np.pi - np.pi / 2) < 1e-12:
                raise InvalidParameterError(
                    f"axes of generators {i} and {j} coincide (angles equal mod pi)"
                )
    gens = []
    for l, a in zip(lengths, angles):
        h = np.diag([np.exp(l / 2), np.exp(-l / 2)])
        r = _rotation(a / 2)
        gens.append(r @ h @ r.T)
    return Representation(2, np.stack(gens), tuple(_DEFAULT_LABELS[:k]))


def _sym_matrix(g: np.ndarray, d: int) -> np.ndarray:
    # row j = coefficients of (a x + b y)^(m-j) (c x + d y)^j on the
    # monomial basis x^m, x^(m-1) y, ..., y^m, where m = d - 1
    m = d - 1
    rows = []
    for j in range(m + 1):
        p = np.array([1.0])
        for _ in range(m - j):
            p = np.convolve(p, g[0])
        for _ in range(j):
            p = np.convolve(p, g[1])
        rows.append(p)
    return np.array(rows)


def sym_power_embed(rep2: Representation, d: int) -> Representation:
    """Image under the action on degree-(d-1) binary forms, the unique
    irreducible SL(2, R) -> SL(d, R).  Multiplicative: products map to
    products of images."""
    if rep2.dim != 2:
        raise InvalidParameterError("sym_power_embed expects a dim-2 representation")
    if d < 2:
        raise InvalidParameterError("target dimension must be >= 2")
    gens = np.stack([_sym_matrix(g, d) for g in rep2.generators])
    dets = np.linalg.det(gens)
    gens = gens / (np.sign(dets) * np.abs(dets) ** (1.0 / d))[:, None, None]
    return Representation(d, gens, rep2.labels)


def perturb(rep: Representation, epsilon: float, seed: int) -> Representation:
    """Entrywise uniform noise in [-eps, eps], rescaled back to det 1.

    Deterministic in the seed.  With eps = 0 the input is returned
    unchanged (bit for bit).  Raises PerturbationFailedError when the
    perturbed determinant has no real d-th root of the right sign (even
    d, negative determinant); retry with another seed.  Raises
    InvalidParameterError for a seed that is not a non-negative integer,
    whatever eps, and for eps that is negative, not finite, or so large
    that the noise range 2 eps overflows.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")
    if epsilon < 0:
        raise InvalidParameterError("epsilon must be >= 0")
    if not np.isfinite(2.0 * epsilon):
        raise InvalidParameterError("epsilon must be finite, with a finite noise range 2 eps")
    if epsilon == 0:
        return rep
    rng = np.random.default_rng(seed)
    d = rep.dim
    out = []
    for g in rep.generators:
        gp = g + rng.uniform(-epsilon, epsilon, g.shape)
        det = np.linalg.det(gp)
        if not np.isfinite(det) or abs(det) < 1e-300 or (det < 0 and d % 2 == 0):
            raise PerturbationFailedError(
                f"perturbed determinant {det:.3e} has no real scaling to 1"
            )
        out.append(gp / (np.sign(det) * abs(det) ** (1.0 / d)))
    return Representation(d, np.stack(out), rep.labels)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------
# Text form: header "dim=<d> gens=<k>", then one line per generator with
# the label followed by the d*d row-major entries at 17 significant
# digits.  A JSON object {"dim":…, "labels":…, "generators":…} with
# row-major generator arrays is accepted interchangeably.

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def dumps_rep(rep: Representation) -> str:
    lines = [f"dim={rep.dim} gens={rep.num_generators}"]
    for lab, g in zip(rep.labels, rep.generators):
        lines.append(" ".join([lab] + [_fmt(x) for x in g.ravel()]))
    return "\n".join(lines) + "\n"


def save_rep(rep: Representation, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_rep(rep))


def loads_rep(text: str) -> Representation:
    text = text.strip()
    if not text:
        raise InvalidInputError("empty representation file")
    if text[0] == "{":
        try:
            obj = json.loads(text)
            d = int(obj["dim"])
            labels = tuple(obj["labels"])
            gens = np.array(
                [np.asarray(g, dtype=float).reshape(d, d) for g in obj["generators"]]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad JSON representation: {exc}") from exc
        return Representation(d, gens, labels)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    try:
        d = int(head[0].split("=")[1])
        k = int(head[1].split("=")[1])
    except (IndexError, ValueError) as exc:
        raise InvalidInputError("bad header line, expected 'dim=<d> gens=<k>'") from exc
    if len(lines) != k + 1:
        raise InvalidInputError(f"expected {k} generator lines, found {len(lines) - 1}")
    labels, gens = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 1 + d * d:
            raise InvalidInputError(f"generator line has {len(parts) - 1} entries, need {d * d}")
        labels.append(parts[0])
        try:
            gens.append(np.array([float(x) for x in parts[1:]]).reshape(d, d))
        except ValueError as exc:
            raise InvalidInputError(f"bad generator line {parts[0]!r}: {exc}") from exc
    return Representation(d, np.array(gens), tuple(labels))


def load_rep(path) -> Representation:
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"representation file is not UTF-8 text: {exc}") from exc
    return loads_rep(text)
