"""Small-scale per-packet channel variation.

Real testbed links do not see a single deterministic RSS: multipath,
orientation and interference make the received power of *each packet* vary
around the path-loss mean.  This spread is load-bearing for the paper's
Fig. 4 — the collided-packet receive rate (CPRR) is a *smooth* function of
channel frequency distance only because per-packet SINR is spread around its
mean (a deterministic SINR would make CPRR a step function, because the
802.15.4 BER curve is extremely steep).

We model the variation as a zero-mean log-normal term (in dB) drawn
independently per (transmission, receiver) pair.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FadingModel", "NoFading", "LogNormalFading", "LinkDraws"]


class LinkDraws:
    """One link's fading stream and its read-ahead draws.

    ``rng`` is the link's own ``fading.{src}.{dst}`` generator; ``draws``
    holds values already taken from it and ``index`` is the next one to
    use.  Only :meth:`FadingModel.sample_db_many` reads or refills the
    draws, so the read-ahead never interleaves with another consumer of
    the stream.
    """

    __slots__ = ("rng", "draws", "index")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.draws: list = []
        self.index = 0


class FadingModel:
    """Interface: per-packet dB offset applied on top of path loss."""

    def sample_db(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def max_gain_db(self) -> float:
        """Largest dB offset :meth:`sample_db` can ever return.

        Used by the medium's link-cache culling: a receiver whose mean RSS
        plus this headroom still misses the delivery floor can be skipped
        without changing any observable outcome.  Models with unbounded
        support must return ``inf`` (which disables culling entirely).
        """
        return float("inf")

    def sample_db_many(self, links) -> list:
        """One draw per :class:`LinkDraws` in ``links``.

        Must be bit-identical to calling :meth:`sample_db` on each link's
        generator in order: each per-link stream advances by exactly one
        draw.  The default loops; overrides exist purely to shave Python
        dispatch off the medium's fanout hot path.
        """
        return [self.sample_db(link.rng) for link in links]


class NoFading(FadingModel):
    """Deterministic channel: every packet sees exactly the mean RSS."""

    def sample_db(self, rng: np.random.Generator) -> float:
        return 0.0

    def max_gain_db(self) -> float:
        return 0.0

    def sample_db_many(self, links) -> list:
        return [0.0] * len(links)


class LogNormalFading(FadingModel):
    """Gaussian-in-dB per-packet variation.

    Parameters
    ----------
    sigma_db:
        Standard deviation of the per-packet offset.  4 dB reproduces the
        gradual CPRR-vs-CFD transition of Fig. 4; testbeds commonly report
        3-6 dB of per-packet RSS spread indoors.
    clip_db:
        Offsets are clipped to ±``clip_db`` to keep extreme draws from
        creating physically absurd link budgets.
    """

    #: Largest refill of a link's draws.  A scalar ``Generator`` call
    #: costs ~2 us of numpy dispatch; batching amortises that to ~0.3
    #: us/draw, which matters because fading is sampled once per
    #: (transmission, audible receiver) pair.
    BUFFER_DRAWS = 128

    #: First refill per link.  Refills grow geometrically (×4 each,
    #: capped at :data:`BUFFER_DRAWS`): 50k-mote scenes hold 10^5+ links
    #: most of which are sampled a handful of times per run, so filling
    #: 128 draws up front wastes most of the generator work at start-up.
    #: Growth is invisible to fixed-seed reproducibility:
    #: ``standard_normal(n)`` consumes the bit stream identically
    #: regardless of how the n draws are chunked (pinned by tests).
    BUFFER_DRAWS_INITIAL = 8

    def __init__(self, sigma_db: float = 4.0, clip_db: float = 12.0) -> None:
        if sigma_db < 0:
            raise ValueError(f"sigma_db must be >= 0, got {sigma_db}")
        if clip_db <= 0:
            raise ValueError(f"clip_db must be > 0, got {clip_db}")
        self.sigma_db = sigma_db
        self.clip_db = clip_db

    def sample_db(self, rng: np.random.Generator) -> float:
        """One unbuffered draw: the reference :meth:`sample_db_many` replays."""
        if self.sigma_db == 0.0:
            return 0.0
        draw = rng.standard_normal() * self.sigma_db
        # Branchy clipping: ~10x cheaper than np.clip on a scalar.
        clip = self.clip_db
        if draw > clip:
            return clip
        if draw < -clip:
            return -clip
        return draw

    def max_gain_db(self) -> float:
        return self.clip_db if self.sigma_db > 0.0 else 0.0

    def sample_db_many(self, links) -> list:
        # Read-ahead draws per link.  ``standard_normal(n) * sigma``
        # consumes the generator's bit stream exactly as n successive
        # scalar draws would and produces bit-identical doubles, so the
        # result equals a loop of sample_db calls on each link's
        # generator (pinned by tests).
        if self.sigma_db == 0.0:
            return [0.0] * len(links)
        sigma = self.sigma_db
        initial = self.BUFFER_DRAWS_INITIAL
        largest = self.BUFFER_DRAWS
        clip = self.clip_db
        neg_clip = -clip
        out = []
        append = out.append
        for link in links:
            draws = link.draws
            index = link.index
            if index == len(draws):
                capacity = 4 * index if index else initial
                if capacity > largest:
                    capacity = largest
                draws = link.draws = (
                    link.rng.standard_normal(capacity) * sigma
                ).tolist()
                index = 0
            draw = draws[index]
            link.index = index + 1
            if draw > clip:
                draw = clip
            elif draw < neg_clip:
                draw = neg_clip
            append(draw)
        return out
