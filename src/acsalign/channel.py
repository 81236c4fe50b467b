"""Constant complex channels and their real rotation lift.

A scalar gain h*exp(j*phi) acting on one complex symbol is the same linear
map as h times a 2x2 rotation by phi acting on the (Re, Im) pair of that
symbol.  Everything downstream (beamformer construction, alignment checks,
rate evaluation) works in this real representation, extended blockwise over
S-symbol slots.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _exports, _extension

__all__ = _exports(__name__)

TWO_PI = 2.0 * np.pi


def rotation_matrix(phi: float) -> np.ndarray:
    """2x2 rotation by phi radians, the real image of multiplication by exp(j*phi)."""
    if not np.isfinite(phi):
        raise ValueError(f"rotation angle must be finite, got {phi!r}")
    c = np.cos(phi)
    s = np.sin(phi)
    return np.array([[c, -s], [s, c]])


def lift(vec) -> np.ndarray:
    """Interleave a complex vector into (Re, Im) pairs, one pair per slot."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    out = np.empty(2 * v.size)
    out[0::2] = v.real
    out[1::2] = v.imag
    return out


def mod_distance(value: float, modulus: float = np.pi) -> float:
    """Distance from value to the nearest integer multiple of modulus.

    Used for all "equal to 0 mod pi / mod 2pi" comparisons.  Symmetric in
    the sign of value because fmod keeps the sign of its argument.
    """
    if not np.isfinite(value):
        raise ValueError(f"angle must be finite, got {float(value)!r}")
    if not modulus > 0:
        raise ValueError(f"modulus must be positive, got {float(modulus)!r}")
    r = abs(float(np.fmod(value, modulus)))
    return min(r, modulus - r)


@dataclass(frozen=True, eq=False)
class ExtendedRotation:
    """Block-diagonal rotation acting on an S-slot interleaved real vector.

    Applying it equals multiplying the underlying complex S-vector by
    exp(j*phase): the matrix is the 2x2 rotation repeated S times along the
    diagonal.  `phase` may also be an array of phases, kept as a read-only
    float copy, and `matrix` then holds one such rotation per phase, with
    shape (*phase.shape, 2S, 2S).  Two rotations are equal when their
    extensions, phase shapes and phases are.
    """

    phase: float | np.ndarray
    extension: int

    def __post_init__(self):
        phase = np.array(self.phase, dtype=float)
        if not np.all(np.isfinite(phase)):
            raise ValueError("phase must be finite")
        if phase.ndim:
            phase.setflags(write=False)
            object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "extension", _extension(self.extension))

    def __eq__(self, other):
        if not isinstance(other, ExtendedRotation):
            return NotImplemented
        return self.extension == other.extension and np.array_equal(self.phase, other.phase)

    def __hash__(self):
        return hash((self.extension, np.shape(self.phase), *np.ravel(self.phase).tolist()))

    @property
    def matrix(self) -> np.ndarray:
        # The entries of kron(eye(S), rotation_matrix(phase)) for every phase,
        # block by block: one cos and one sin over all phases, scattered once.
        s = self.extension
        phase = np.asarray(self.phase, dtype=float)
        cos, sin = np.cos(phase), np.sin(phase)
        rotations = np.stack([cos, -sin, sin, cos], axis=-1).reshape(*phase.shape, 2, 2)
        blocks = np.zeros((*phase.shape, s, 2, s, 2))
        diag = np.arange(s)
        blocks[..., diag, :, diag, :] = rotations
        blocks.setflags(write=False)
        return blocks.reshape(*phase.shape, 2 * s, 2 * s)


@dataclass(frozen=True, eq=False)
class ComplexChannelMatrix:
    """Magnitude/phase grid of constant gains between every tx/rx pair.

    Entry (r, t) is the gain from transmitter t to receiver r.  Phases are
    stored canonically in [0, 2*pi); magnitudes are nonnegative.  Two
    channels are equal when both grids hold the same entries.
    """

    magnitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        mag = np.array(self.magnitude, dtype=float)
        ph = np.array(self.phase, dtype=float)
        if mag.ndim != 2:
            raise ValueError("magnitude must be a 2-d array (num_rx, num_tx)")
        if ph.shape != mag.shape:
            raise ValueError(f"phase shape {ph.shape} does not match magnitude shape {mag.shape}")
        if mag.shape[0] < 1 or mag.shape[1] < 1:
            raise ValueError("channel needs at least one receiver and one transmitter")
        if not (np.all(np.isfinite(mag)) and np.all(np.isfinite(ph))):
            raise ValueError("channel entries must be finite")
        if np.any(mag < 0):
            raise ValueError("magnitudes must be nonnegative")
        ph = np.mod(ph, TWO_PI)
        # np.mod rounds a tiny negative phase up to the modulus itself.
        ph[ph == TWO_PI] = 0.0
        mag.setflags(write=False)
        ph.setflags(write=False)
        object.__setattr__(self, "magnitude", mag)
        object.__setattr__(self, "phase", ph)

    def __eq__(self, other):
        if not isinstance(other, ComplexChannelMatrix):
            return NotImplemented
        return np.array_equal(self.magnitude, other.magnitude) and np.array_equal(self.phase, other.phase)

    def __hash__(self):
        # Python hashes -0.0 like 0.0, so channels with equal entries hash equal.
        return hash((self.magnitude.shape, *self.magnitude.ravel().tolist(), *self.phase.ravel().tolist()))

    def __reduce__(self):
        # Pickling and copying rebuild through the constructor from the two
        # grids alone, so derived values are rebuilt on first use.
        return type(self), (self.magnitude, self.phase)

    @property
    def num_rx(self) -> int:
        return self.magnitude.shape[0]

    @property
    def num_tx(self) -> int:
        return self.magnitude.shape[1]

    @property
    def fully_connected(self) -> bool:
        return bool(np.all(self.magnitude > 0))

    @property
    def coefficients(self) -> np.ndarray:
        return self.magnitude * np.exp(1j * self.phase)

    @classmethod
    def from_coefficients(cls, coeffs) -> "ComplexChannelMatrix":
        c = np.asarray(coeffs, dtype=complex)
        return cls(np.abs(c), np.angle(c))

    def _derived(self, key, build):
        """build() on the first request for `key`, then the kept result: the one
        store for values that follow from the two grids alone, which pickling
        leaves behind.  Kept values must be immutable."""
        derived = self.__dict__.setdefault("_derived_values", {})
        if key not in derived:
            derived[key] = build()
        return derived[key]

    def link_rotations(self, extension: int) -> np.ndarray:
        """Lifted link rotations for `extension` slots, one read-only array of
        shape (num_rx, num_tx, 2S, 2S): entry [rx][tx] is the (rx, tx) link's
        2S x 2S matrix.  Built by one ExtendedRotation over the phase grid on
        first use for each extension, or kept from the block of trials a build
        rotated the channel in, and kept with the channel."""
        return self._derived(("rotations", extension), lambda: ExtendedRotation(self.phase, extension).matrix)


def sample_channel(seed, num_tx: int, num_rx: int) -> ComplexChannelMatrix:
    """Draw a generic channel: phases uniform on [0, 2pi), magnitudes Rayleigh.

    Both come from a single unit-variance complex Gaussian draw per link, so
    magnitude and phase are independent.  Deterministic in the seed, which may
    be an int or a sequence of ints (mixed the way numpy's SeedSequence does).
    """
    if num_tx < 1 or num_rx < 1:
        raise ValueError("need at least one transmitter and one receiver")
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((num_rx, num_tx))
    im = rng.standard_normal((num_rx, num_tx))
    g = (re + 1j * im) / np.sqrt(2.0)
    return ComplexChannelMatrix(np.abs(g), np.angle(g))


# The six cyclic phase sums that govern cross-receiver separability in the
# 3-user constructions.  Each entry lists ((rx, tx), sign) terms; the last
# term is the diagonal link of the receiver the sum implicates.  Index k
# implicates receiver k // 2.  The same index sets define the matching
# magnitude ratios (positive terms over negative terms).
_CROSS_TERMS: tuple[tuple[tuple[tuple[int, int], int], ...], ...] = (
    (((0, 2), +1), ((1, 0), +1), ((1, 2), -1), ((0, 0), -1)),
    (((0, 1), +1), ((2, 0), +1), ((2, 1), -1), ((0, 0), -1)),
    (((1, 0), +1), ((2, 1), +1), ((2, 0), -1), ((1, 1), -1)),
    (((1, 2), +1), ((0, 1), +1), ((0, 2), -1), ((1, 1), -1)),
    (((2, 1), +1), ((0, 2), +1), ((0, 1), -1), ((2, 2), -1)),
    (((2, 0), +1), ((1, 2), +1), ((1, 0), -1), ((2, 2), -1)),
)

NUM_CROSS_SUMS = len(_CROSS_TERMS)


def _signed_phase_sum(channel: ComplexChannelMatrix, terms) -> float:
    """Sum of sign * phase over ((rx, tx), sign) terms, added in the order given."""
    return float(sum(sign * channel.phase[rt] for rt, sign in terms))


def _signed_gain_ratio(channel: ComplexChannelMatrix, terms) -> float | None:
    """Product of the positive terms' link magnitudes over the product of the
    negative terms', in the order given; None when a denominator link is zero."""
    num = 1.0
    den = 1.0
    for rt, sign in terms:
        if sign > 0:
            num *= channel.magnitude[rt]
        else:
            den *= channel.magnitude[rt]
    return None if den == 0.0 else float(num / den)


def implicated_receiver(index: int) -> int:
    """Receiver whose column stack collapses when cross sum `index` hits 0 mod pi."""
    if not 0 <= index < NUM_CROSS_SUMS:
        raise ValueError(f"index must be in 0..{NUM_CROSS_SUMS - 1}")
    return index // 2


# Seed for the generic 3x3 backbone of the engineered special channels. Chosen
# so that every cross sum not being forced keeps a wide distance from all
# multiples of pi, before and after each diagonal override (tests assert the
# margin).
_GENERIC_BASE_SEED = 1890


def _generic_base() -> ComplexChannelMatrix:
    return sample_channel(_GENERIC_BASE_SEED, 3, 3)


def _unit_gains(cross_phase: float) -> ComplexChannelMatrix:
    """Every gain of magnitude 1: direct phases 0, every cross phase `cross_phase`."""
    ph = np.full((3, 3), cross_phase)
    np.fill_diagonal(ph, 0.0)
    return ComplexChannelMatrix(np.ones((3, 3)), ph)


def _forced_cross_sum(index: int, singular: bool) -> ComplexChannelMatrix:
    """The generic base with cross sum `index` (0-based) forced to 0 mod 2pi,
    and if `singular` its matching gain ratio forced to 1."""
    base = _generic_base()
    mag = np.array(base.magnitude)
    ph = np.array(base.phase)
    *rest, (diag_rt, _) = _CROSS_TERMS[index]
    # Force the sum to zero by solving for the diagonal phase it contains.
    ph[diag_rt] = _signed_phase_sum(base, rest)
    if singular:
        mag[diag_rt] = _signed_gain_ratio(base, rest)
    return ComplexChannelMatrix(mag, ph)


# Each named 3x3 channel and its builder, in listing order: the only list of
# the names.  acs-violating-i is generic except cross sum i (1-based) forced to
# 0 mod pi; singular-i also has the matching gain ratio 1.
_SPECIAL_CHANNELS = {
    "phase-example": partial(_unit_gains, np.pi / 2),
    "plus-minus-one": partial(_unit_gains, np.pi),  # +1 on the diagonal, -1 off it
    "all-ones": partial(_unit_gains, 0.0),
    **{f"acs-violating-{k + 1}": partial(_forced_cross_sum, k, False) for k in range(NUM_CROSS_SUMS)},
    **{f"singular-{k + 1}": partial(_forced_cross_sum, k, True) for k in range(NUM_CROSS_SUMS)},
}


def special_channel_kinds() -> tuple[str, ...]:
    return tuple(_SPECIAL_CHANNELS)


def construct_special_channel(kind: str) -> ComplexChannelMatrix:
    """The named 3x3 channel `kind`, one of special_channel_kinds(): channels
    hitting specific feasibility and singularity regimes."""
    build = _SPECIAL_CHANNELS.get(kind)
    if build is None:
        raise ValueError(f"unknown special channel kind {kind!r}; "
                         f"choose from {', '.join(_SPECIAL_CHANNELS)}")
    return build()


def dump_channel(channel: ComplexChannelMatrix, path) -> None:
    """Write a channel as plain text: a dimension header, then one link per line.

    Lines hold 1-based receiver index, 1-based transmitter index, magnitude,
    phase in radians.  Floats use full precision so load/dump round-trips.
    """
    lines = [f"{channel.num_rx} {channel.num_tx}"]
    for r in range(channel.num_rx):
        for t in range(channel.num_tx):
            lines.append(
                f"{r + 1} {t + 1} {channel.magnitude[r, t]:.17g} {channel.phase[r, t]:.17g}"
            )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_channel(path) -> ComplexChannelMatrix:
    """Read a channel written by dump_channel (or by hand in the same format)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # Decoded whole, so a bad byte's offset is its offset in the file.
        lines = io.StringIO(data.decode("ascii"), newline=None)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not an ASCII channel file "
                         f"(byte {data[exc.start]:#04x} at offset {exc.start})") from None
    rows = [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"channel file {path} is empty")
    header = rows[0].split()
    if len(header) != 2 or not all(tok.isdigit() and int(tok) > 0 for tok in header):
        raise ValueError(f"{path}: header must hold two positive integers num_rx num_tx, got {rows[0]!r}")
    num_rx, num_tx = int(header[0]), int(header[1])
    expected = num_rx * num_tx
    if len(rows) - 1 != expected:
        raise ValueError(f"{path}: expected {expected} link lines, found {len(rows) - 1}")
    mag = np.zeros((num_rx, num_tx))
    ph = np.zeros((num_rx, num_tx))
    seen = set()
    for ln in rows[1:]:
        try:
            rx, tx, magnitude, phase = ln.split()
            r, t, m, p = int(rx) - 1, int(tx) - 1, float(magnitude), float(phase)
        except ValueError:
            raise ValueError(f"{path}: bad link line: {ln!r}") from None
        if not (0 <= r < num_rx and 0 <= t < num_tx):
            raise ValueError(f"{path}: link indices out of range: {ln!r}")
        if (r, t) in seen:
            raise ValueError(f"{path}: duplicate link ({r + 1}, {t + 1})")
        seen.add((r, t))
        mag[r, t] = m
        ph[r, t] = p
    try:
        return ComplexChannelMatrix(mag, ph)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
