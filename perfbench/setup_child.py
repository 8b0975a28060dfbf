"""Set-up time in a fresh interpreter: import abelode and build a workload's inputs.

Run as ``python setup_child.py SPEC.json`` with ``src`` on PYTHONPATH.  The
spec (written by run.py) names what to build; reading it is not timed.
Prints the seconds from before ``import abelode`` to the last input built.
"""

import json
import sys
import time


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    start = time.perf_counter()
    import abelode
    from abelode import config

    built = []
    for case_id, _x_max in spec.get("cases", []):
        built.append(abelode.normalize(abelode.get_case(case_id).equation))
    for coefficients in spec.get("equations", []):
        built.append(abelode.normalize(abelode.build_equation(coefficients, x0=0.0)))
    for path in spec.get("equation_configs", []):
        built.append(config.equation_config(config.load_pairs(path)).build())
    for path in spec.get("param_configs", []):
        built.append(config.merton_params(config.load_pairs(path)))
    elapsed = time.perf_counter() - start
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1])
