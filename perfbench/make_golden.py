"""Record the reference answers the benchmark's correctness gates compare against.

    python3 perfbench/make_golden.py

writes perfbench/golden.json from the library in src/.  The file holds the
answers of the commit the benchmark was defined on: the central coroot and
dual Coxeter number of every affine type, the finite witness verdicts, the
constant-term verdicts of every maximal subset, and the Levi type of every
proper subset.  Re-running it on a later commit re-baselines the gates, so
do that only when an output change is intended and recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from loopatlas import cartan, parabolic, roots  # noqa: E402


def main() -> None:
    affine = cartan.all_types(8)
    finite = cartan.all_types(parabolic.FINITE_RANK_LIMIT, affine=False)
    golden = {
        "central_coroot": {cm.label: list(roots.central_coroot(cm)) for cm in affine},
        "dual_coxeter": {cm.label: roots.dual_coxeter(cm) for cm in affine},
        "finite_witness": [],
        "constant_term": [],
        "levi": {},
    }
    for cm in finite:
        for node in cm.nodes:
            cert = parabolic.finite_self_associate(cm, node)
            word = list(cert.witness.word) if cert.witness else None
            golden["finite_witness"].append([cm.label, node, cert.self_associate, word, cert.searched])
    for cm in affine:
        for p in parabolic.maximal_parabolics(cm):
            report = parabolic.constant_term_is_trivial(p)
            golden["constant_term"].append([cm.label, p.removed[0], report.trivial, report.reason])
        levis = []
        for mask in range((1 << cm.size) - 1):
            nodes = tuple(i + 1 for i in range(cm.size) if mask >> i & 1)
            lt = parabolic.levi_type(parabolic.parabolic_subset(cm, nodes))
            levis.append("+".join(lt.labels))
        golden["levi"][cm.label] = levis
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
