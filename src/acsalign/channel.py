"""Constant complex channels and their real rotation lift.

A scalar gain h*exp(j*phi) acting on one complex symbol is the same linear
map as h times a 2x2 rotation by phi acting on the (Re, Im) pair of that
symbol.  Everything downstream (beamformer construction, alignment checks,
rate evaluation) works in this real representation, extended blockwise over
S-symbol slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "TWO_PI",
    "rotation_matrix",
    "extend_rotation",
    "ExtendedRotation",
    "lift",
    "unlift",
    "mod_distance",
    "ComplexChannelMatrix",
    "sample_channel",
    "construct_special_channel",
    "special_channel_kinds",
    "cross_phase_sum",
    "cross_gain_ratio",
    "implicated_receiver",
    "NUM_CROSS_SUMS",
    "load_channel",
    "dump_channel",
]


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


def unlift(data) -> np.ndarray:
    """Inverse of lift: rebuild the complex vector from interleaved reals."""
    x = np.asarray(data, dtype=float).reshape(-1)
    if x.size % 2:
        raise ValueError("lifted data must have even length")
    return x[0::2] + 1j * x[1::2]


def mod_distance(value: float, modulus: float = np.pi) -> float:
    """Distance from value to the nearest integer multiple of modulus.

    Used for all "equal to 0 mod pi / mod 2pi" comparisons.  Symmetric in
    the sign of value because fmod keeps the sign of its argument.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    r = abs(float(np.fmod(value, modulus)))
    return min(r, modulus - r)


@dataclass(frozen=True)
class ExtendedRotation:
    """Block-diagonal rotation acting on an S-slot interleaved real vector.

    Applying it equals multiplying the underlying complex S-vector by
    exp(j*phase): the matrix is the 2x2 rotation repeated S times along the
    diagonal.
    """

    phase: float
    extension: int

    def __post_init__(self):
        if not np.isfinite(self.phase):
            raise ValueError("phase must be finite")
        if int(self.extension) != self.extension or self.extension < 1:
            raise ValueError(f"extension must be a positive integer, got {self.extension!r}")

    @property
    def matrix(self) -> np.ndarray:
        # The entries of kron(eye(S), rotation_matrix(phase)), block by block.
        s = self.extension
        blocks = np.zeros((s, 2, s, 2))
        diag = np.arange(s)
        blocks[diag, :, diag, :] = rotation_matrix(self.phase)
        blocks.setflags(write=False)
        return blocks.reshape(2 * s, 2 * s)


def extend_rotation(phi: float, extension: int) -> ExtendedRotation:
    """Rotation by phi applied independently to each of `extension` complex slots."""
    return ExtendedRotation(float(phi), int(extension))


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

    def __getstate__(self):
        # Just the two grids: lifted rotations are rebuilt on first use.
        return self.magnitude, self.phase

    def __setstate__(self, state):
        for name, grid in zip(("magnitude", "phase"), state):
            grid.setflags(write=False)
            object.__setattr__(self, name, grid)

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

    def link_rotations(self, extension: int) -> tuple[tuple[np.ndarray, ...], ...]:
        """Lifted link rotations for `extension` slots: entry [rx][tx] is the
        (rx, tx) link's 2S x 2S matrix.  Built on first use for each extension
        and kept with the channel (rotation matrices are read-only)."""
        lifted = self.__dict__.setdefault("_lifted_rotations", {})
        if extension not in lifted:
            lifted[extension] = tuple(
                tuple(extend_rotation(ph, extension).matrix for ph in row) for row in self.phase
            )
        return lifted[extension]


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


def _cross_terms(channel: ComplexChannelMatrix, index: int, what: str):
    if channel.magnitude.shape != (3, 3):
        raise ValueError(f"cross {what} are defined for 3x3 channels")
    if not 0 <= index < NUM_CROSS_SUMS:
        raise ValueError(f"index must be in 0..{NUM_CROSS_SUMS - 1}")
    return _CROSS_TERMS[index]


def cross_phase_sum(channel: ComplexChannelMatrix, index: int) -> float:
    """Signed phase sum number `index` (0..5) of a 3x3 channel."""
    return _signed_phase_sum(channel, _cross_terms(channel, index, "phase sums"))


def cross_gain_ratio(channel: ComplexChannelMatrix, index: int) -> float:
    """Magnitude ratio paired with cross_phase_sum: positive links over negative."""
    ratio = _signed_gain_ratio(channel, _cross_terms(channel, index, "gain ratios"))
    if ratio is None:
        raise ValueError("gain ratio undefined: zero magnitude in denominator")
    return ratio


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


def special_channel_kinds() -> tuple[str, ...]:
    kinds = ["phase-example", "plus-minus-one", "all-ones"]
    kinds += [f"acs-violating-{i}" for i in range(1, NUM_CROSS_SUMS + 1)]
    kinds += [f"singular-{i}" for i in range(1, NUM_CROSS_SUMS + 1)]
    return tuple(kinds)


def construct_special_channel(kind: str) -> ComplexChannelMatrix:
    """Named 3x3 channels hitting specific feasibility and singularity regimes.

    phase-example     unit gains, direct phases 0, cross phases pi/2
    plus-minus-one    +1 on the diagonal, -1 off it
    all-ones          every gain equal to 1
    acs-violating-i   generic except cross sum i (1-based) forced to 0 mod pi
    singular-i        generic except singularity condition i forced to hold
                      (phase sum 0 mod 2pi and matching gain ratio 1)
    """
    if kind == "phase-example":
        mag = np.ones((3, 3))
        ph = np.full((3, 3), np.pi / 2)
        np.fill_diagonal(ph, 0.0)
        return ComplexChannelMatrix(mag, ph)
    if kind == "plus-minus-one":
        mag = np.ones((3, 3))
        ph = np.full((3, 3), np.pi)
        np.fill_diagonal(ph, 0.0)
        return ComplexChannelMatrix(mag, ph)
    if kind == "all-ones":
        return ComplexChannelMatrix(np.ones((3, 3)), np.zeros((3, 3)))

    for prefix in ("acs-violating-", "singular-"):
        if kind.startswith(prefix):
            try:
                index = int(kind[len(prefix):]) - 1
            except ValueError:
                raise ValueError(f"unknown special channel kind {kind!r}") from None
            if not 0 <= index < NUM_CROSS_SUMS:
                raise ValueError(f"special channel index must be 1..{NUM_CROSS_SUMS}, got {kind!r}")
            base = _generic_base()
            mag = np.array(base.magnitude)
            ph = np.array(base.phase)
            *rest, (diag_rt, _) = _CROSS_TERMS[index]
            # Force the sum to zero by solving for the diagonal phase it contains.
            ph[diag_rt] = _signed_phase_sum(base, rest)
            if prefix == "singular-":
                mag[diag_rt] = _signed_gain_ratio(base, rest)
            return ComplexChannelMatrix(mag, ph)

    raise ValueError(f"unknown special channel kind {kind!r}")


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
    with open(path, "r", encoding="ascii") as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"channel file {path} is empty")
    header = rows[0].split()
    if len(header) != 2:
        raise ValueError("header must hold two integers: num_rx num_tx")
    num_rx, num_tx = int(header[0]), int(header[1])
    expected = num_rx * num_tx
    if len(rows) - 1 != expected:
        raise ValueError(f"expected {expected} link lines, found {len(rows) - 1}")
    mag = np.zeros((num_rx, num_tx))
    ph = np.zeros((num_rx, num_tx))
    seen = set()
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"bad link line: {ln!r}")
        r, t = int(parts[0]) - 1, int(parts[1]) - 1
        if not (0 <= r < num_rx and 0 <= t < num_tx):
            raise ValueError(f"link indices out of range: {ln!r}")
        if (r, t) in seen:
            raise ValueError(f"duplicate link ({r + 1}, {t + 1})")
        seen.add((r, t))
        mag[r, t] = float(parts[2])
        ph[r, t] = float(parts[3])
    return ComplexChannelMatrix(mag, ph)
