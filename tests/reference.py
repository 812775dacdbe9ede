"""The oracle the compiled stream loop is tested against, and the harness
that runs either one on a config's stream.

:func:`reference_stream` applies the splitter rule, :func:`interact`, to a
photon stream in plain Python, with :func:`mzsim.phases.wrap_phase` for
every reduction. The kernel (``run_stream`` in ``src/mzsim/_kernel.c``)
does the same IEEE double operations in the same order, so the two fill the
same outcome arrays bit for bit; the property tests in
``test_experiment.py`` check that. The oracle takes its photons as arrays:
it draws nothing, sums nothing in place, and has no use on the run path.
The kernel draws each initial phase by calling ``next_double(state)``, the
pair numpy's ``Generator.bit_generator.ctypes`` hands out (documented under
``BitGenerator.ctypes``); :func:`listed_bitgen` makes a ``next_double`` of
chosen phases.
"""

import ctypes
import math

import numpy as np

from mzsim.experiment import _stream_params
from mzsim.optics import generate_emissions
from mzsim.phases import TWO_PI, wrap_phase


def interact(p, s, alpha, beta):
    """One photon/splitter interaction: ``(reflected, p_new, s_new)``.

    ``p`` and ``s`` are the photon's and the splitter's wrapped phases at the
    interaction time. The photon reflects iff wrap(p - s) < pi; a reflection
    replaces both phases with ``p' = wrap(alpha*p + beta*s)`` and
    ``s' = wrap(alpha*s + beta*p)``, a transmission returns them unchanged.
    ``(alpha, beta) = (1, 0)`` makes the update the identity, which disables
    the splitter's memory entirely.
    """
    if wrap_phase(p - s) >= math.pi:
        return False, p, s
    return True, wrap_phase(alpha * p + beta * s), wrap_phase(alpha * s + beta * p)


def reference_stream(times, phases, nu_p, path1, path2, nu1, a1, b1, s1, nu2, a2, b2, c2, lag2):
    """``(bs1, bs2)``, int8 arrays that are 1 where photon ``i``, emitted at
    ``times[i]`` with initial phase ``phases[i]``, reflected at that
    splitter; the other arguments are :func:`_stream_params`'.

    Each oscillator's wrapped phase is carried from one photon to the next by
    the difference of their emission times (photon 0's from time 0),
    ``wrap(x + nu*gap)``: the source's ``cp`` and BS1's ``s1`` as the photon
    meets BS1, and BS2's ``c2`` as it would meet BS2 by path 1 (path 2 meets
    it ``lag2`` later). A reflection keeps the phases ``interact`` returns,
    BS2's shifted back to the path 1 time.
    """
    bs1, bs2 = np.zeros(len(times), np.int8), np.zeros(len(times), np.int8)
    cp, prev = path1, 0.0
    for i, (t, phi) in enumerate(zip(times.tolist(), phases.tolist(), strict=True)):
        gap, prev = t - prev, t
        cp, s1 = wrap_phase(cp + nu_p * gap), wrap_phase(s1 + nu1 * gap)
        c2 = wrap_phase(c2 + nu2 * gap)
        first, p, s1 = interact(wrap_phase(cp + wrap_phase(phi)), s1, a1, b1)
        p2 = wrap_phase(p + (path1 if first else path2))
        second, _, s = interact(p2, c2 if first else wrap_phase(c2 + lag2), a2, b2)
        if second:
            c2 = s if first else wrap_phase(s - lag2)
        bs1[i], bs2[i] = first, second
    return bs1, bs2


def listed_bitgen(turns):
    """A ``next_double`` that returns ``turns`` in order, whatever ``state``
    it is handed, so that the kernel drawing from it gives photon ``i`` the
    initial phase ``turns[i] * TWO_PI``: chosen phases through the kernel's
    draw. The kernel calls it; keep it alive while the kernel runs."""
    values = iter(np.asarray(turns, np.float64).tolist())
    return ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)(lambda _: next(values))


def stream_outcomes(loop, config, turns=None):
    """``(bs1, bs2)`` as ``loop`` fills them for the stream of ``config`` as
    ``run_mzi`` draws it: the gaps, then the initial phases from the same
    generator, or the configured phase. Given ``turns``, the initial phases
    are ``turns * TWO_PI`` in their place.

    ``loop`` is the compiled ``run_stream``, handed the gaps and the
    ``(next_double, state)`` to draw the phases by, as ``run_mzi`` hands
    them; its arrays start at -1, so a photon it skips shows. Or it is
    :func:`reference_stream`, handed the times ``np.cumsum`` gives and the
    phases as an array."""
    n, phase = config.photon_count, config.particle_initial_phase
    rng = np.random.default_rng(config.master_seed)
    times = generate_emissions(config, rng)
    if loop is reference_stream:
        if turns is None and phase is None:
            turns = rng.random(n)
        phases = np.full(n, phase) if turns is None else np.asarray(turns, np.float64) * TWO_PI
        return reference_stream(np.cumsum(times), phases, *_stream_params(config))
    draw = rng.bit_generator.ctypes
    next_double = draw.next_double if phase is None else None
    if turns is not None:
        next_double = listed_bitgen(turns)  # alive until the loop returns
    bs1, bs2 = np.full(n, -1, np.int8), np.full(n, -1, np.int8)
    loop(times, n, next_double, draw.state, 0.0 if phase is None else phase,
         *_stream_params(config), bs1, bs2)
    return bs1, bs2
