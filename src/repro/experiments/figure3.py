"""Figure 3: cycle-by-cycle execution of four threads, both schemes.

Reproduces the paper's trace: threads A (two instructions), B (three,
with a two-cycle pipeline dependency), C (four), and D (six), each ending
in a cache miss.  The rendered timeline shows who owns every issue slot;
the blocked scheme flushes seven slots per miss and stalls on B's
dependency, while the interleaved scheme hides the dependency and loses
only each context's own in-flight instructions.
"""

from repro.core.tracing import TimelineRecorder
from repro.experiments.microbench import build_four_thread_processor
from repro.experiments.report import render_timeline


def run(latency=30):
    """Returns {scheme: (finish_cycle, lane_string, squashed)}."""
    out = {}
    for scheme in ("blocked", "interleaved"):
        recorder = TimelineRecorder()
        proc = build_four_thread_processor(scheme, latency=latency,
                                           trace=recorder)
        now = 0
        while not proc.all_halted() and now < 1000:
            proc.step(now)
            now += 1
        out[scheme] = (now, recorder.lane(), proc.stats.squashed)
    return out


def render(result=None, latency=30):
    if result is None:
        result = run(latency=latency)
    lanes = []
    for scheme in ("blocked", "interleaved"):
        finish, cells, squashed = result[scheme]
        lanes.append(("%s (%d cyc)" % (scheme, finish), cells))
    timeline = render_timeline(
        "Figure 3: four threads, miss latency %d "
        "(UPPER=issue, lower=squashed, .=stall)" % latency,
        lanes, max_cycles=max(len(c) for _, c in lanes))
    summary = ("\nsquashed slots: blocked=%d interleaved=%d "
               "(paper: 7 per miss vs 2-3 per miss)"
               % (result["blocked"][2], result["interleaved"][2]))
    return timeline + summary
