"""Dense-module query server used by the `dense-queries` workload.

Protocol, one JSON object per line on stdin, one reply line per request:

    {"fill": ["-1/2", ...], "op": 0}   -> compute Q cold for each level
    {"batch": [[level, r, mu], ...], "op": 8}
                                       -> {"answers": [bool, ...]}

The answer to (level, r, mu) is `admz.q_annihilates_E`.  At end of input
the process exits; with `--trace` it first prints its spans as a `#trace`
line (see tracer.py).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction


def main(argv: list[str]) -> None:
    recorder = None
    if "--trace" in argv:
        from tracer import Recorder

        recorder = Recorder(op=0)
        recorder.install()
    from admz import weight_modules, zhu

    levels = {}
    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if "fill" in request:
            for text in request["fill"]:
                if recorder:
                    recorder.op = op
                levels[text] = zhu.level_from_string(text)
                zhu.compute_Q(levels[text])
                op += 1
            reply = {"filled": len(request["fill"])}
        else:
            answers = []
            for level, r, mu in request["batch"]:
                if recorder:
                    recorder.op = op
                params = weight_modules.DenseParams(r=Fraction(r), mu=Fraction(mu))
                answers.append(weight_modules.q_annihilates_E(levels[level], params))
                op += 1
            reply = {"answers": answers}
        print(json.dumps(reply), flush=True)
    if recorder:
        print(recorder.dump(), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
