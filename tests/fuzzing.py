"""Hypothesis strategy shared by the reader fuzz tests."""

from hypothesis import strategies as st


@st.composite
def damaged(draw, blob: bytes, hot: int | None = None) -> bytes:
    """``blob`` cut short, or with 1-4 bytes flipped, half of them among its first ``hot`` bytes (all by default)."""
    if draw(st.booleans()):
        return blob[: draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.one_of(st.integers(0, (hot or len(blob)) - 1), st.integers(0, len(blob) - 1)))
        out[at] ^= draw(st.integers(1, 255))
    return bytes(out)
